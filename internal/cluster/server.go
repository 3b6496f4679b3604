package cluster

import (
	"time"

	"tycoon/internal/ship"
)

// NewServer fronts a Coordinator with the same TYWR01 protocol tycd
// speaks — the same serving core, in fact: tycsh and package client
// drive a cluster exactly as they drive one shard, and the coordinator
// re-ships each PTML frame to the shards that own the data.
// Config.MaxSessions and Config.IdleTimeout tune the front end. WATCH,
// SYNC and DIGEST have no entry in the verb table: they are single-store
// verbs, and a coordinator answers them with a protocol error.
func NewServer(co *Coordinator) *ship.FrontEnd {
	verbs := map[ship.Verb]ship.Handler{
		ship.VInstall: co.work(forward(ship.DecodeInstall, co.Install)),
		ship.VSubmit:  co.work(forward(ship.DecodeSubmit, co.Submit)),
		ship.VCall: co.work(forward(ship.DecodeCall, func(req *ship.Call) (*ship.Result, error) {
			return co.Call(req.Module, req.Fn, req.Args)
		})),
		ship.VOptimize: co.work(forward(ship.DecodeOptimize, func(req *ship.Optimize) (*ship.Result, error) {
			return co.Optimize(req.Module, req.Fn)
		})),
	}
	return ship.NewFrontEnd(ship.Daemon{
		Name:        "tycc",
		MaxSessions: co.cfg.MaxSessions,
		IdleTimeout: co.cfg.IdleTimeout,
		Out:         co.cfg.Out,
		// Sessions carry no state of their own: one table serves them all.
		Session: func(*ship.Session) map[ship.Verb]ship.Handler { return verbs },
		Stats: func(out *ship.ServerStats) {
			out.Inflight = co.gate.Inflight()
			out.Cluster = co.Stats()
			out.Shed = out.Cluster.Shed
		},
		Health: func(h *ship.Health) {
			ch := co.Health()
			h.Degraded, h.Reason, h.Inflight = ch.Degraded, ch.Reason, ch.Inflight
		},
		AfterDrain: func() error {
			if co.cfg.HandoffDir != "" {
				// Best-effort final catch-up now that no new writes can land:
				// ship what the reachable lagging replicas will take; whatever
				// remains stays durable in the logs and the next boot resumes it.
				co.RepairNow()
			}
			co.Close()
			return nil
		},
	})
}

// work gates a forward behind the coordinator's inflight bound and
// renders its Result.
func (co *Coordinator) work(h func(body []byte) (*ship.Result, error)) ship.Handler {
	return func(body []byte) (ship.Verb, []byte, *ship.WireError) {
		start := time.Now()
		if werr := co.gate.Enter(); werr != nil {
			return 0, nil, werr
		}
		defer co.gate.Leave()
		res, err := h(body)
		if err != nil {
			return 0, nil, ship.WireErr(ship.CodeInternal, err)
		}
		return ship.Reply(res, start)
	}
}

// forward decodes a request body and hands it to the coordinator.
func forward[T any](decode func([]byte) (*T, error), do func(*T) (*ship.Result, error)) func([]byte) (*ship.Result, error) {
	return func(body []byte) (*ship.Result, error) {
		req, err := decode(body)
		if err != nil {
			return nil, ship.WireErr(ship.CodeProto, err)
		}
		return do(req)
	}
}
