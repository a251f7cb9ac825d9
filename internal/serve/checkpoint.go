package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Sharded checkpointing: each shard's pipeline carries independently
// learned state (model, normalizer statistics, BoW vocabulary, evaluation
// counters), so a server checkpoint is one core checkpoint file per shard
// plus a manifest pinning the shard count. Because ShardFor is a pure
// function of (userID, shard count), restoring into a server with the same
// shard count routes every user back to the shard that learned from them.

// manifest pins the shape a checkpoint directory was written with.
type manifest struct {
	Shards  int    `json:"shards"`
	Model   string `json:"model"`
	Classes int    `json:"classes"`
}

const manifestName = "manifest.json"

func shardFile(i int) string { return fmt.Sprintf("shard-%04d.ckpt", i) }

// Checkpoint writes every shard's learned state into dir (created if
// needed). Call it after Drain so no shard is mid-tweet.
//
// Every file is written to a temporary name, synced and renamed into
// place, with the manifest renamed last and the directory synced after
// it, so a crash or power loss mid-checkpoint never truncates the
// previous checkpoint's files (the narrow rename window can at worst mix
// shard generations, not corrupt them).
func (s *Server) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	for _, sh := range s.shards {
		if err := writeSynced(filepath.Join(dir, shardFile(sh.id)), sh.p.Checkpoint); err != nil {
			return fmt.Errorf("serve: checkpoint shard %d: %w", sh.id, err)
		}
	}
	m := manifest{
		Shards:  len(s.shards),
		Model:   s.opts.Pipeline.Model.String(),
		Classes: s.opts.Pipeline.Scheme.NumClasses(),
	}
	err := writeSynced(filepath.Join(dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint manifest: %w", err)
	}
	return nil
}

// writeSynced writes path through a temporary file that is synced before
// it is renamed over path, so the name never points at unwritten data.
func writeSynced(path string, write func(io.Writer) error) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		os.Remove(path + ".tmp")
	}
	return err
}

// syncDir makes the renames into dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // read-only: the Sync error is the one that matters
	return d.Sync()
}

// Restore loads a checkpoint directory written by Checkpoint into this
// server's shards. The server must have been built with the same shard
// count and compatible pipeline options; call it before serving traffic.
func (s *Server) Restore(dir string) error {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("serve: restore manifest: %w", err)
	}
	if m.Shards != len(s.shards) {
		return fmt.Errorf("serve: checkpoint has %d shards, server has %d (user affinity would break)",
			m.Shards, len(s.shards))
	}
	for _, sh := range s.shards {
		f, err := os.Open(filepath.Join(dir, shardFile(sh.id)))
		if err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", sh.id, err)
		}
		err = sh.p.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", sh.id, err)
		}
	}
	return nil
}
