package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"redhanded/internal/engine"
	"redhanded/internal/twitterdata"
)

// Tweet ids are fixed-width ("t" + 9 digits) and sit at a fixed offset of
// every marshalled line, so a sender makes each tweet it sends unique by
// overwriting the digits in place — no re-marshal on the hot path of the
// load generator.
const (
	idPrefix = `{"id_str":"t`
	idDigits = 9
)

// patchID overwrites the id digits of a marshalled corpus line with seq.
func patchID(line []byte, seq uint64) {
	for i := len(idPrefix) + idDigits - 1; i >= len(idPrefix); i-- {
		line[i] = byte('0' + seq%10)
		seq /= 10
	}
}

// parseID is the inverse of patchID on a decoded tweet id.
func parseID(id []byte) (uint64, bool) {
	if len(id) != 1+idDigits || id[0] != 't' {
		return 0, false
	}
	var seq uint64
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// corpus is a serving workload's input: pre-marshalled NDJSON lines that
// senders cycle through. The lines are slices of one arena, so the load
// generator's garbage collector has one object to mark instead of 100 000 and
// its cycles do not steal the server's CPU on a small box.
type corpus struct {
	lines   [][]byte
	labeled int
}

// compactLines copies lines into one arena and returns slices of it.
func compactLines(lines [][]byte) [][]byte {
	total := 0
	for _, l := range lines {
		total += len(l)
	}
	arena := make([]byte, 0, total)
	out := make([][]byte, len(lines))
	for i, l := range lines {
		arena = append(arena, l...)
		out[i] = arena[len(arena)-len(l) : len(arena) : len(arena)]
	}
	return out
}

// compactTweets moves every string of tweets into one arena string, for the
// same reason: the offline workloads run the pipeline in this process, and a
// corpus of 1.4 million small strings would make every GC cycle of the
// system under test mark the harness's data.
func compactTweets(tweets []twitterdata.Tweet) {
	fields := func(t *twitterdata.Tweet) [7]*string {
		return [7]*string{&t.IDStr, &t.Text, &t.CreatedAt, &t.Label, &t.User.IDStr, &t.User.ScreenName, &t.User.CreatedAt}
	}
	total := 0
	for i := range tweets {
		for _, f := range fields(&tweets[i]) {
			total += len(*f)
		}
	}
	var b strings.Builder
	b.Grow(total)
	for i := range tweets {
		for _, f := range fields(&tweets[i]) {
			b.WriteString(*f)
		}
	}
	arena, off := b.String(), 0
	for i := range tweets {
		for _, f := range fields(&tweets[i]) {
			*f = arena[off : off+len(*f)]
			off += len(*f)
		}
	}
}

// appendBatch appends n lines starting at sequence number seq to body, each
// patched to carry its own sequence number as id, and returns the body.
func (c *corpus) appendBatch(body []byte, seq uint64, n int) []byte {
	for i := 0; i < n; i++ {
		s := seq + uint64(i)
		start := len(body)
		body = append(body, c.lines[s%uint64(len(c.lines))]...)
		patchID(body[start:], s)
		body = append(body, '\n')
	}
	return body
}

// buildServingCorpus makes n NDJSON lines from the twitterdata generators.
//
//   - labeledShare of the tweets keep their label, so the server trains
//     while it classifies.
//   - created_at is rewritten to a monotone clock (clockStepMilli per
//     tweet, account age preserved). The generator's day = n % 10 makes
//     event time jump days between neighbours, which TTL-evicts most users
//     on every tweet — a user-state workload no deployment sees.
//   - user ids are redrawn Zipf(zipfS, zipfV) over zipfUsers users, so user
//     state is updated as well as inserted and shards see key skew.
//   - n is far above nproc x 8192 cache entries, so cycling the corpus never
//     turns a unique text into a fake cache hit.
//   - retweetShare of the unlabeled tweets carry the text of an earlier tweet
//     instead of their own: one of the tweets that spread (every
//     spreadEvery-th tweet is one), drawn evenly from those among the last
//     retweetWindow tweets, so a text that spreads is seen a dozen times
//     while it is current and some two hundred texts are spreading at any
//     moment. The generators' own DuplicateRatio is not used: its power law
//     lets a handful of texts make up most of the stream, and whether those
//     few happen to be aggressive decides the whole run — between seeds the
//     share of tweets that alert was either 4% or 33%.
func buildServingCorpus(seed uint64, retweetShare float64, n int) (*corpus, error) {
	src := twitterdata.NewUnlabeledSource(seed, 10)
	cfg := twitterdata.DefaultAggressionConfig()
	total := float64(cfg.NormalCount + cfg.AbusiveCount + cfg.HatefulCount)
	scale := float64(n) * labeledShare * 1.2 / total // 20% head-room over the expected draw
	cfg.Seed = seed ^ 0x1abe1ed
	cfg.NormalCount = int(float64(cfg.NormalCount) * scale)
	cfg.AbusiveCount = int(float64(cfg.AbusiveCount) * scale)
	cfg.HatefulCount = int(float64(cfg.HatefulCount) * scale)
	labeled := twitterdata.GenerateAggression(cfg)

	rng := rand.New(rand.NewPCG(seed, 0xc02b05))
	zipf := rand.NewZipf(rng, zipfS, zipfV, zipfUsers-1)
	base := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	c := &corpus{lines: make([][]byte, 0, n)}
	texts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var t twitterdata.Tweet
		if c.labeled < len(labeled) && rng.Float64() < labeledShare {
			t = labeled[c.labeled]
			c.labeled++
		} else {
			t = src.Next()
			if i%spreadEvery != 0 && rng.Float64() < retweetShare {
				first := max(0, i-retweetWindow+spreadEvery-1) / spreadEvery // the oldest spreading tweet in the window
				t.Text = texts[(first+rng.IntN(i/spreadEvery-first+1))*spreadEvery]
			}
		}
		texts = append(texts, t.Text)
		posted := base.Add(time.Duration(i*clockStepMilli) * time.Millisecond)
		age := time.Duration(t.AccountAgeDays() * 24 * float64(time.Hour))
		user := zipf.Uint64()
		t.IDStr = fmt.Sprintf("t%0*d", idDigits, i)
		t.CreatedAt = posted.Format(twitterdata.TimeLayout)
		t.User.CreatedAt = posted.Add(-age).Format(twitterdata.TimeLayout)
		t.User.IDStr = fmt.Sprintf("u%07d", user)
		t.User.ScreenName = fmt.Sprintf("user%05d", user)
		line, err := t.Marshal()
		if err != nil {
			return nil, fmt.Errorf("marshal corpus tweet %d: %w", i, err)
		}
		if !bytes.HasPrefix(line, []byte(idPrefix)) {
			return nil, fmt.Errorf("corpus line %d does not start with %s: id patching would corrupt it", i, idPrefix)
		}
		c.lines = append(c.lines, line)
	}
	c.lines = compactLines(c.lines)
	return c, nil
}

// buildOfflineCorpus materialises corpus_paper_mix: the 86k labeled dataset
// spread evenly through an unlabeled stream, offlineTotal tweets in all —
// the workload of the paper's scalability experiments. Ids are rewritten to
// the tweet's index so an alert maps back to the moment its tweet was pulled.
func buildOfflineCorpus(seed uint64) []twitterdata.Tweet {
	cfg := twitterdata.DefaultAggressionConfig()
	cfg.Seed = seed ^ 0x1abe1ed
	src := engine.NewMixedSource(twitterdata.GenerateAggression(cfg),
		twitterdata.NewUnlabeledSource(seed, cfg.Days), offlineTotal)
	out := make([]twitterdata.Tweet, 0, offlineTotal)
	for {
		t, ok := src.Next()
		if !ok {
			compactTweets(out)
			return out
		}
		t.IDStr = fmt.Sprintf("t%0*d", idDigits, len(out))
		out = append(out, t)
	}
}

// marshalTweets renders tweets as NDJSON lines for the layers that consume
// bytes (decode, log append).
func marshalTweets(tweets []twitterdata.Tweet) ([][]byte, error) {
	lines := make([][]byte, len(tweets))
	for i := range tweets {
		line, err := tweets[i].Marshal()
		if err != nil {
			return nil, fmt.Errorf("marshal tweet %d: %w", i, err)
		}
		lines[i] = line
	}
	return lines, nil
}
