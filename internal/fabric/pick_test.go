package fabric

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"clocksched"
	"clocksched/internal/service"
	"clocksched/internal/telemetry"
)

// pickShard is one hand-built shard of a pick-rule case.
type pickShard struct {
	done, localOnly bool
	holders         []string
	idle            time.Duration // time since the shard's last activity
	adopt           string        // peer a journaled lease names
}

// pickCoordinator builds a coordinator over peers "A" and "B" (those in
// down are backing off at now) or over no peers at all, holding the
// given shards.
func pickCoordinator(stealAfter time.Duration, noPeers bool, down []string, shards []pickShard, now time.Time) *Coordinator {
	c := &Coordinator{
		cfg:   Config{StealAfter: stealAfter},
		local: &peerState{base: localName},
		reg:   telemetry.New(),
	}
	if !noPeers {
		for _, name := range []string{"A", "B"} {
			p := &peerState{base: name}
			for _, d := range down {
				if d == name {
					p.backoffUntil = now.Add(time.Second)
				}
			}
			c.peers = append(c.peers, p)
		}
	}
	for i, ps := range shards {
		s := &shardState{index: i, lo: i, hi: i + 1, done: ps.done, localOnly: ps.localOnly,
			holders: map[string]bool{}, lastActivity: now.Add(-ps.idle)}
		for _, h := range ps.holders {
			s.holders[h] = true
		}
		if ps.adopt != "" {
			s.adoptPeer, s.adoptJob = ps.adopt, "j1"
		}
		if !ps.done {
			c.remaining++
		}
		c.shards = append(c.shards, s)
	}
	return c
}

// runnerNamed resolves a case's runner name to the coordinator's runner.
func runnerNamed(c *Coordinator, name string) *peerState {
	if name == localName {
		return c.local
	}
	for _, p := range c.peers {
		if p.base == name {
			return p
		}
	}
	panic("no runner " + name)
}

// TestFabricPickRules pins every eligibility rule of the one pick
// function both kinds of runner share, on hand-built state at a fixed
// instant — the integration tests reach these rules only through timing.
func TestFabricPickRules(t *testing.T) {
	const stale, fresh = time.Minute, time.Millisecond
	inFlight := func(idle time.Duration, holders ...string) pickShard {
		return pickShard{holders: holders, idle: idle}
	}
	for _, tc := range []struct {
		name       string
		stealAfter time.Duration
		noPeers    bool
		down       []string
		shards     []pickShard
		runner     string
		want       int // shard index, -1 for none
		mode       takeMode
	}{
		{name: "peer in backoff gets nothing", down: []string{"A"},
			shards: []pickShard{{}}, runner: "A", want: -1},
		{name: "peer adopts its journaled lease first",
			shards: []pickShard{{}, {adopt: "A"}}, runner: "A", want: 1, mode: takeAdopt},
		{name: "peer ignores a lease naming another peer",
			shards: []pickShard{{adopt: "B"}, {}}, runner: "A", want: 0},
		{name: "peer does not adopt a held shard",
			shards: []pickShard{{adopt: "A", holders: []string{"B"}}, {}}, runner: "A", want: 1},
		{name: "peer does not adopt a local-only shard",
			shards: []pickShard{{adopt: "A", localOnly: true}, {}}, runner: "A", want: 1},
		{name: "peer dispatches the first pending shard",
			shards: []pickShard{{done: true}, inFlight(fresh, "B"), {}, {}}, runner: "A", want: 2},
		{name: "peer skips local-only pending shards",
			shards: []pickShard{{localOnly: true}, {}}, runner: "A", want: 1},
		{name: "peer prefers pending over a steal",
			shards: []pickShard{inFlight(stale, "B"), {}}, runner: "A", want: 1},
		{name: "peer steals the stalest idle shard",
			shards: []pickShard{inFlight(2*stale, "B"), inFlight(3*stale, "B"), inFlight(stale, "B")},
			runner: "A", want: 1, mode: takeSteal},
		{name: "steal ties go to the first shard",
			shards: []pickShard{inFlight(stale, "B"), inFlight(stale, "B")}, runner: "A", want: 0, mode: takeSteal},
		{name: "peer does not steal a recently active shard",
			shards: []pickShard{inFlight(fresh, "B")}, runner: "A", want: -1},
		{name: "peer does not steal what it holds",
			shards: []pickShard{inFlight(2*stale, "A"), inFlight(stale, "B")}, runner: "A", want: 1, mode: takeSteal},
		{name: "peer does not steal a shard at the holder cap",
			shards: []pickShard{inFlight(2*stale, "B", localName, "C"), inFlight(stale, "B", localName)},
			runner: "A", want: 1, mode: takeSteal},
		{name: "peer does not steal a local-only shard",
			shards: []pickShard{{localOnly: true, holders: []string{localName}, idle: stale}}, runner: "A", want: -1},
		{name: "negative StealAfter disables peer steals", stealAfter: -1,
			shards: []pickShard{inFlight(stale, "B")}, runner: "A", want: -1},
		{name: "done shards are never picked",
			shards: []pickShard{{done: true, adopt: "A"}, {done: true, idle: stale}}, runner: "A", want: -1},

		{name: "local takes local-only shards with the fleet up",
			shards: []pickShard{{}, {localOnly: true}}, runner: localName, want: 1},
		{name: "local leaves ordinary shards to a healthy fleet", down: []string{"A"},
			shards: []pickShard{{}}, runner: localName, want: -1},
		{name: "local takes any pending shard with every peer down", down: []string{"A", "B"},
			shards: []pickShard{{done: true}, {}}, runner: localName, want: 1},
		{name: "local runs everything with no peers", noPeers: true,
			shards: []pickShard{{}}, runner: localName, want: 0},
		{name: "local does not steal while a peer is up", down: []string{"A"},
			shards: []pickShard{inFlight(stale, "A")}, runner: localName, want: -1},
		{name: "local steals with every peer down, local-only shards too", down: []string{"A", "B"},
			shards: []pickShard{inFlight(stale, "A"), {localOnly: true, holders: []string{"B"}, idle: 2 * stale}},
			runner: localName, want: 1, mode: takeSteal},
		{name: "local does not steal what it holds", noPeers: true,
			shards: []pickShard{inFlight(2*stale, localName), inFlight(stale, "A")}, runner: localName, want: 1, mode: takeSteal},
		{name: "local does not steal a shard at the holder cap", noPeers: true,
			shards: []pickShard{inFlight(stale, "A", "B", "C")}, runner: localName, want: -1},
		{name: "local does not steal a recently active shard", noPeers: true,
			shards: []pickShard{inFlight(fresh, "A")}, runner: localName, want: -1},
		{name: "negative StealAfter disables local steals", stealAfter: -1, noPeers: true,
			shards: []pickShard{inFlight(stale, "A")}, runner: localName, want: -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1_000_000, 0)
			stealAfter := tc.stealAfter
			if stealAfter == 0 {
				stealAfter = time.Second
			}
			c := pickCoordinator(stealAfter, tc.noPeers, tc.down, tc.shards, now)
			s, mode := c.pickLocked(runnerNamed(c, tc.runner), now)
			got := -1
			if s != nil {
				got = s.index
			}
			if got != tc.want || s != nil && mode != tc.mode {
				t.Fatalf("picked shard %d mode %d, want shard %d mode %d", got, mode, tc.want, tc.mode)
			}
		})
	}
}

// TestFabricTakeCountsAttempts pins take's claim bookkeeping: a peer's
// dispatches and steals charge the shard a remote attempt, adoptions and
// local runs do not, and every steal is counted under the runner's name.
func TestFabricTakeCountsAttempts(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		name     string
		down     []string
		shard    pickShard
		runner   string
		attempts int
		steal    bool
	}{
		{name: "peer dispatch", shard: pickShard{}, runner: "A", attempts: 1},
		{name: "peer adopt", shard: pickShard{adopt: "A"}, runner: "A", attempts: 0},
		{name: "peer steal", shard: pickShard{holders: []string{"B"}, idle: time.Hour}, runner: "A", attempts: 1, steal: true},
		{name: "local run", shard: pickShard{localOnly: true}, runner: localName, attempts: 0},
		{name: "local steal", down: []string{"A", "B"}, shard: pickShard{holders: []string{"B"}, idle: time.Hour},
			runner: localName, attempts: 0, steal: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pickCoordinator(time.Second, false, tc.down, []pickShard{tc.shard}, now)
			r := runnerNamed(c, tc.runner)
			s, _ := c.take(context.Background(), r)
			if s == nil || !s.holders[r.base] {
				t.Fatalf("take returned %v without claiming it for %s", s, r.base)
			}
			if s.attempts != tc.attempts {
				t.Errorf("attempts = %d, want %d", s.attempts, tc.attempts)
			}
			steals := c.reg.Counter(mSteal(r.base)).Value()
			if (steals == 1) != tc.steal || steals > 1 {
				t.Errorf("%s steal counter = %v, want steal=%v", r.base, steals, tc.steal)
			}
		})
	}
}

// TestFabricShardFailureNamesPeer runs a spec whose cells always fail: the
// one peer fails the sweep, its one remote attempt is spent, and the local
// fallback fails too. The fatal error must name the peer that failed
// remotely, not just the local failure.
func TestFabricShardFailureNamesPeer(t *testing.T) {
	cfg := fabricGrid(2)
	cfg.FailFast = true
	cfg.Faults = &clocksched.FaultPlan{CellAbortProb: 1}
	spec := clocksched.NewSweepSpec(cfg)
	peer := startPeer(t, service.Config{Workers: 1})
	co, err := New(Config{
		Dir:               t.TempDir(),
		Peers:             []string{peer},
		MaxRemoteAttempts: 1,
		PollInterval:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = co.Run(ctx, spec)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeShardFailed {
		t.Fatalf("run error = %v, want %s", err, CodeShardFailed)
	}
	if !strings.Contains(apiErr.Message, "last remote failure on "+peer) {
		t.Fatalf("shard failure %q does not name the peer %s", apiErr.Message, peer)
	}
}
