package faultfs

// StormLatencyTicks is the simulated per-operation latency budget the
// chaos harness layers on top of StormProfile (cmd/occhaos); the
// serving commands leave latency off so injected faults, not injected
// sleeps, dominate their behaviour.
const StormLatencyTicks = 8

// StormProfile is the canonical fault storm the tooling arms by
// default — occd -faults, occhaos's flag defaults and the serving
// storm test all share it, so "the storm" means the same device
// misbehaviour everywhere: every fault class at rates that keep most
// requests succeeding while exercising every error path.
func StormProfile() Profile {
	return Profile{
		ReadErr:      0.05,
		WriteErr:     0.05,
		WriteNoSpace: 0.02,
		TornWrite:    0.06,
		SyncErr:      0.10,
	}
}

// NewStorm returns an injector armed with the canonical storm,
// drawing every decision from seed — the one-liner behind the
// commands' -faults flags.
func NewStorm(seed int64) *Injector {
	return New(seed, StormProfile())
}
