package vnet

import "repro/internal/sim"

// Fault injection.
//
// The fault layer perturbs wire traffic between distinct nodes: loss,
// duplication, reordering, latency jitter, mid-run partitions that heal
// at a virtual time, and per-node slowdown.  Loopback delivery (same
// node) is never faulted — a host does not lose messages to itself.
//
// # Determinism contract
//
// Every fault decision is a pure function of (Seed, message identity,
// decision kind): the per-send sequence number, assigned in the engine's
// deterministic step order, is hashed with a splitmix64 mixer, so the
// same scenario produces bit-identical fault patterns however the grid
// worker pool schedules its jobs — there is no draw-order-dependent PRNG
// stream to perturb.
//
// # Accounting contract
//
// Fault outcomes never leak into the paper's Messages/Bytes columns;
// they land in Stats.Dropped and Stats.Retrans instead:
//
//   - a datagram transmission killed by loss or a partition counts in
//     Dropped (per fragment), not Messages/Bytes;
//   - a duplicated datagram's extra delivery counts in Retrans;
//   - a protocol retransmission (SendObjRetrans) counts in Retrans,
//     whether it is delivered or killed (a killed one also counts in
//     Dropped);
//   - a stream send always counts once in Messages/Bytes (the paper's
//     user-level TCP accounting); the emulated ARQ's lost attempts
//     count in Dropped and its retries in Retrans.
//
// Offered wire load is therefore Messages + Retrans, and the delivered
// fraction of it degrades exactly with the configured fault rates.
type FaultConfig struct {
	// Seed keys the deterministic fault PRNG.  Two runs of the same
	// scenario with the same seed see identical fault patterns.
	Seed uint64

	Loss    float64  // per-wire-message loss probability, [0, 1)
	Dup     float64  // per-wire-message duplication probability, [0, 1)
	Reorder float64  // probability a datagram is held back by ReorderDelay
	Jitter  sim.Time // extra uniform [0, Jitter) delivery delay

	// ReorderDelay is how long a reordered datagram is held back.
	// Zero selects 4x the configured wire latency.
	ReorderDelay sim.Time

	// Slowdown scales the per-node CPU costs the network model charges
	// (send/receive/loopback overheads), indexed by node.  Entries at or
	// below 1 (and nodes past the end) run at full speed.
	Slowdown []float64

	// Partitions are network splits active over half-open virtual-time
	// windows.  While a partition is active, traffic between its Nodes
	// group and the rest of the cluster is severed: datagrams are
	// dropped, stream (TCP) deliveries stall until the partition heals.
	Partitions []Partition
}

// Partition severs the Nodes group from all other nodes during
// [Start, Heal).  Traffic within the group, and among the outside
// nodes, is unaffected.
type Partition struct {
	Start sim.Time
	Heal  sim.Time
	Nodes []int
}

// covers reports whether the partition is active at t.
func (p *Partition) covers(t sim.Time) bool { return t >= p.Start && t < p.Heal }

// isolates reports whether node is in the partition's severed group.
func (p *Partition) isolates(node int) bool {
	for _, n := range p.Nodes {
		if n == node {
			return true
		}
	}
	return false
}

// Enabled reports whether any fault knob is set; the fault path in xmit
// is skipped entirely (and zero-fault runs stay byte-identical to a
// fault-free build) when it is false.
func (f *FaultConfig) Enabled() bool {
	return f.Loss > 0 || f.Dup > 0 || f.Reorder > 0 || f.Jitter > 0 ||
		len(f.Partitions) > 0 || len(f.Slowdown) > 0
}

// Lossy reports whether messages can be lost, duplicated or delayed past
// protocol timeouts — the condition under which transport users must arm
// their reliability machinery (sequence numbers, timeout/retransmit,
// duplicate suppression).  Pure slowdown or jitter is not lossy.
func (f *FaultConfig) Lossy() bool {
	return f.Loss > 0 || f.Dup > 0 || f.Reorder > 0 || len(f.Partitions) > 0
}

// severed reports whether an active partition separates nodes a and b
// at time t.
func (f *FaultConfig) severed(a, b int, t sim.Time) bool {
	for i := range f.Partitions {
		p := &f.Partitions[i]
		if p.covers(t) && p.isolates(a) != p.isolates(b) {
			return true
		}
	}
	return false
}

// slow returns the CPU slowdown factor of node (>= 1).
func (f *FaultConfig) slow(node int) float64 {
	if node < 0 || node >= len(f.Slowdown) {
		return 1
	}
	if s := f.Slowdown[node]; s > 1 {
		return s
	}
	return 1
}

// Decision kinds: distinct sub-streams of the per-message hash, so one
// message's loss, duplication, reorder and jitter draws are independent.
const (
	kLoss uint64 = iota + 1
	kDup
	kReorder
	kJitter
	kDupDelay
	// kStream + attempt draws the per-attempt loss of the stream ARQ.
	kStream uint64 = 16
)

// draw returns a uniform [0, 1) variate for (message seq, decision kind),
// keyed by the scenario seed.
func (f *FaultConfig) draw(seq, kind uint64) float64 {
	h := sim.SplitMix64(sim.SplitMix64(f.Seed^seq) + kind)
	return float64(h>>11) / (1 << 53)
}

// scaleTime applies a slowdown factor to a modeled duration.
func scaleTime(t sim.Time, factor float64) sim.Time {
	if factor == 1 {
		return t
	}
	return sim.Time(float64(t) * factor)
}
