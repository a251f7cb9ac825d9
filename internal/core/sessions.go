package core

import "redhanded/internal/userstate"

// Session-level detection is the paper's stated future work (§VI): forms
// of behavior like cyberbullying and trolling involve *repetitive* hostile
// actions, so they are detected over a group of tweets from the same user
// rather than a single tweet. The windowing lives in the sharded
// internal/userstate store every Pipeline owns (Options.Users.Session);
// verdicts arrive on Result.Session and at the VerdictSinks.

// SessionConfig tunes the session windows.
type SessionConfig = userstate.SessionConfig

// SessionVerdict is emitted when a user's sliding window crosses the
// aggression threshold.
type SessionVerdict = userstate.SessionVerdict

// EscalationVerdict flags a user trending toward aggression across
// sessions (see userstate.EscalationConfig for the scoring model).
type EscalationVerdict = userstate.EscalationVerdict
