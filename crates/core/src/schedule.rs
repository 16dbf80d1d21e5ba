//! The FSM schedule: which GC core garbles which AND gate in which cycle.
//!
//! This replaces the conventional netlist-walking execution of software GC
//! frameworks (§3: "The FSM replaces the netlist in the conventional GC").
//! The compiler here performs pipelined list scheduling of the MAC netlist's
//! AND gates onto the parallel cores:
//!
//! * XOR/NOT gates are free (computed combinationally alongside) and only
//!   contribute dependency edges;
//! * an AND gate may run at cycle `t` if every AND in its fan-in cone ran at
//!   a cycle `< t` (its label reaches the core through wiring / the Figure-2
//!   delay registers);
//! * consecutive MAC rounds overlap: round `r+1`'s gates may start while
//!   round `r` drains, subject to the loop-carried accumulator dependency
//!   (round `r+1` reads `acc_in[i]` only after every AND feeding round `r`'s
//!   `acc_out[i]` finished).
//!
//! The resulting schedule *measures* the initiation interval (cycles per
//! MAC in steady state), pipeline latency, utilization and idle-core counts
//! that §4.3 of the paper derives analytically.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use max_netlist::{GateKind, Netlist};
use serde::{Deserialize, Serialize};

use crate::config::AcceleratorConfig;

/// Gate-selection policy of the list scheduler — ablated by the
/// `ablation_policy` bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Oldest round first, then longest critical path (the default; what
    /// the paper's hand schedule approximates).
    #[default]
    CriticalPath,
    /// Oldest round first, then netlist order (no height information).
    Fifo,
    /// Critical path only, rounds competing freely.
    HeightOnly,
}

/// Which pipeline segment of the paper's datapath an AND gate belongs to
/// (§4.1 MUX_ADD vs §4.2 TREE — used for the Figure 3 occupancy dump).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Segment 1: partial products, input sign handling, first adder level.
    MuxAdd,
    /// Segment 2: adder tree, accumulator, output sign handling.
    Tree,
}

/// One scheduled slot: gate `gate` of round `round` runs on `core` at
/// absolute cycle `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotAssignment {
    /// Absolute clock cycle.
    pub cycle: u64,
    /// Core index.
    pub core: usize,
    /// Sequential-GC round.
    pub round: u32,
    /// Index into `netlist.gates()` (always an AND gate).
    pub gate: u32,
}

/// Aggregate schedule quality metrics.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Total cycles to finish all rounds.
    pub cycles: u64,
    /// AND gates (garbled tables) per round.
    pub ands_per_round: usize,
    /// Rounds scheduled.
    pub rounds: usize,
    /// Measured steady-state initiation interval (cycles between successive
    /// round completions, averaged over the second half of the run).
    pub steady_state_ii: f64,
    /// Cycle at which round 0 completed (pipeline-fill latency).
    pub first_round_latency: u64,
    /// Fraction of core-cycles doing useful garbling.
    pub utilization: f64,
    /// Maximum number of idle cores over the steady-state window.
    pub max_idle_cores_steady: usize,
}

/// A compiled pipelined schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    cores: usize,
    assignments: Vec<SlotAssignment>,
    round_completion: Vec<u64>,
    stats: ScheduleStats,
    segments: Vec<Segment>,
}

/// Key of [`Schedule::shared`] — everything [`Schedule::compile`] reads for
/// a MAC circuit: (operand width, accumulator width, signed, cores, rounds).
type ScheduleKey = (usize, usize, bool, usize, usize);

/// Most schedules [`Schedule::shared`] keeps.
const SHARED_SCHEDULES: usize = 32;
/// Most slot assignments it keeps across all of them (24 bytes each).
const SHARED_SLOTS: usize = 1 << 20;

/// Insertion-ordered, oldest first; small enough to scan.
type SharedSchedules = VecDeque<(ScheduleKey, Arc<Schedule>)>;

static SHARED: Mutex<SharedSchedules> = Mutex::new(VecDeque::new());

/// Dependency graph over the AND gates of one round.
struct GateGraph {
    /// Netlist gate index of each AND, in topological order.
    and_gates: Vec<u32>,
    /// Intra-round AND-predecessors (indices into `and_gates`).
    preds: Vec<Vec<u32>>,
    /// Accumulator-input positions each AND transitively reads.
    acc_preds: Vec<Vec<u32>>,
    /// Per output position: ANDs in its fan-in cone.
    out_and_preds: Vec<Vec<u32>>,
    /// Per output position: accumulator-input positions in its cone.
    out_acc_preds: Vec<Vec<u32>>,
    /// Critical-path height (in AND gates) of each AND.
    height: Vec<u32>,
    /// Segment classification of each AND.
    segments: Vec<Segment>,
}

fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl GateGraph {
    fn build(netlist: &Netlist, state_range: std::ops::Range<usize>) -> Self {
        let wire_count = netlist.wire_count();
        // Per-wire fan-in cones through free gates: (AND set, acc-pos set).
        let mut wire_ands: Vec<Vec<u32>> = vec![Vec::new(); wire_count];
        let mut wire_accs: Vec<Vec<u32>> = vec![Vec::new(); wire_count];
        for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
            if state_range.contains(&pos) {
                wire_accs[wire.index()] = vec![(pos - state_range.start) as u32];
            }
        }

        let mut and_gates = Vec::new();
        let mut preds = Vec::new();
        let mut acc_preds = Vec::new();
        for (gate_idx, gate) in netlist.gates().iter().enumerate() {
            let a = gate.a.index();
            let b = gate.b.index();
            match gate.kind {
                GateKind::And => {
                    let and_idx = and_gates.len() as u32;
                    preds.push(union_sorted(&wire_ands[a], &wire_ands[b]));
                    acc_preds.push(union_sorted(&wire_accs[a], &wire_accs[b]));
                    and_gates.push(gate_idx as u32);
                    wire_ands[gate.out.index()] = vec![and_idx];
                    wire_accs[gate.out.index()] = Vec::new();
                }
                GateKind::Xor => {
                    wire_ands[gate.out.index()] = union_sorted(&wire_ands[a], &wire_ands[b]);
                    wire_accs[gate.out.index()] = union_sorted(&wire_accs[a], &wire_accs[b]);
                }
                GateKind::Not => {
                    wire_ands[gate.out.index()] = wire_ands[a].clone();
                    wire_accs[gate.out.index()] = wire_accs[a].clone();
                }
            }
        }

        let out_and_preds: Vec<Vec<u32>> = netlist
            .outputs()
            .iter()
            .map(|w| wire_ands[w.index()].clone())
            .collect();
        let out_acc_preds: Vec<Vec<u32>> = netlist
            .outputs()
            .iter()
            .map(|w| wire_accs[w.index()].clone())
            .collect();

        // Heights (longest AND chain to any output), via reverse DP over the
        // topologically ordered AND list.
        let n = and_gates.len();
        let mut height = vec![1u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (g, ps) in preds.iter().enumerate() {
            for &p in ps {
                dependents[p as usize].push(g as u32);
            }
        }
        for g in (0..n).rev() {
            let succ_max = dependents[g].iter().map(|&d| height[d as usize]).max();
            height[g] = 1 + succ_max.unwrap_or(0);
        }

        // Segment classification: AND-level ≤ 2 (partial products, sign
        // handling, first adder bits) is the MUX_ADD segment.
        let mut level = vec![1u32; n];
        for g in 0..n {
            let pred_max = preds[g].iter().map(|&p| level[p as usize]).max();
            level[g] = 1 + pred_max.unwrap_or(0);
        }
        let segments = level
            .iter()
            .map(|&l| {
                if l <= 2 {
                    Segment::MuxAdd
                } else {
                    Segment::Tree
                }
            })
            .collect();

        GateGraph {
            and_gates,
            preds,
            acc_preds,
            out_and_preds,
            out_acc_preds,
            height,
            segments,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct ReadyGate {
    priority: u64,
    node: u32,
}

impl Ord for ReadyGate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for ReadyGate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Schedule {
    /// Compiles a pipelined schedule of `rounds` consecutive MAC rounds onto
    /// `cores` GC cores.
    ///
    /// `state_range` is the positional range of the carried accumulator in
    /// the garbler inputs (see [`crate::AcceleratorConfig::state_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `rounds` is zero, or the state range is
    /// inconsistent with the netlist.
    pub fn compile(
        netlist: &Netlist,
        cores: usize,
        rounds: usize,
        state_range: std::ops::Range<usize>,
    ) -> Self {
        Self::compile_with_policy(
            netlist,
            cores,
            rounds,
            state_range,
            SchedulePolicy::default(),
        )
    }

    /// [`Schedule::compile`] with an explicit gate-selection policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Schedule::compile`].
    pub fn compile_with_policy(
        netlist: &Netlist,
        cores: usize,
        rounds: usize,
        state_range: std::ops::Range<usize>,
        policy: SchedulePolicy,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(rounds > 0, "need at least one round");
        assert!(
            state_range.end <= netlist.garbler_inputs().len(),
            "state range out of bounds"
        );
        assert_eq!(
            state_range.len(),
            netlist.outputs().len(),
            "state width must equal output width"
        );
        let graph = GateGraph::build(netlist, state_range);
        let n_ands = graph.and_gates.len();
        let n_outs = graph.out_and_preds.len();
        assert!(n_ands > 0, "netlist has no AND gates to schedule");

        // Node numbering: rounds × (ANDs then STATEs).
        let per_round = n_ands + n_outs;
        let total = rounds * per_round;
        let and_node = |r: usize, g: usize| (r * per_round + g) as u32;
        let state_node = |r: usize, o: usize| (r * per_round + n_ands + o) as u32;
        let is_and = |node: u32| (node as usize % per_round) < n_ands;
        let round_of = |node: u32| node as usize / per_round;
        let local_of = |node: u32| node as usize % per_round;

        // pending dep counts and reverse adjacency.
        let mut pending = vec![0u32; total];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); total];
        for r in 0..rounds {
            for g in 0..n_ands {
                let node = and_node(r, g);
                for &p in &graph.preds[g] {
                    pending[node as usize] += 1;
                    dependents[and_node(r, p as usize) as usize].push(node);
                }
                if r > 0 {
                    for &pos in &graph.acc_preds[g] {
                        pending[node as usize] += 1;
                        dependents[state_node(r - 1, pos as usize) as usize].push(node);
                    }
                }
            }
            for o in 0..n_outs {
                let node = state_node(r, o);
                for &p in &graph.out_and_preds[o] {
                    pending[node as usize] += 1;
                    dependents[and_node(r, p as usize) as usize].push(node);
                }
                if r > 0 {
                    for &pos in &graph.out_acc_preds[o] {
                        pending[node as usize] += 1;
                        dependents[state_node(r - 1, pos as usize) as usize].push(node);
                    }
                }
            }
        }

        // max completion of deps seen so far, per node.
        let mut dep_completion = vec![0u64; total];
        let priority = |node: u32| -> u64 {
            let r = round_of(node) as u64;
            let h = graph.height[local_of(node)] as u64;
            let g = local_of(node) as u64;
            match policy {
                SchedulePolicy::CriticalPath => ((rounds as u64 - r) << 24) | h,
                // FIFO: earlier rounds first, then earlier netlist position
                // (invert the gate index so BinaryHeap's max-pop sees it).
                SchedulePolicy::Fifo => ((rounds as u64 - r) << 24) | (0xff_ffff - g),
                SchedulePolicy::HeightOnly => h,
            }
        };

        let mut future: Vec<Vec<u32>> = vec![Vec::new()];
        let push_future = |future: &mut Vec<Vec<u32>>, cycle: u64, node: u32| {
            let idx = cycle as usize;
            if future.len() <= idx {
                future.resize(idx + 1, Vec::new());
            }
            future[idx].push(node);
        };

        // STATE resolution cascades within a cycle.
        let mut assignments: Vec<SlotAssignment> = Vec::with_capacity(rounds * n_ands);
        let mut round_completion = vec![0u64; rounds];
        let mut busy_per_cycle: Vec<usize> = Vec::new();

        // Seed: nodes with no pending deps.
        let mut heap: BinaryHeap<ReadyGate> = BinaryHeap::new();
        let mut initially_done_states: Vec<u32> = Vec::new();
        for node in 0..total as u32 {
            if pending[node as usize] == 0 {
                if is_and(node) {
                    push_future(&mut future, 0, node);
                } else {
                    // A state with no deps completes "before" cycle 0.
                    initially_done_states.push(node);
                }
            }
        }

        let mut scheduled = 0usize;
        let mut cycle = 0u64;

        // Helper performed inline below for state cascades.
        macro_rules! complete_node {
            ($node:expr, $completion:expr, $queue:expr) => {{
                let node: u32 = $node;
                let completion: u64 = $completion;
                for &dep in &dependents[node as usize] {
                    let slot = &mut dep_completion[dep as usize];
                    if *slot < completion {
                        *slot = completion;
                    }
                    pending[dep as usize] -= 1;
                    if pending[dep as usize] == 0 {
                        $queue.push(dep);
                    }
                }
            }};
        }

        // Resolve the zero-dep states (cascade).
        {
            let mut queue: Vec<u32> = initially_done_states;
            while let Some(node) = queue.pop() {
                if is_and(node) {
                    push_future(&mut future, dep_completion[node as usize], node);
                } else {
                    let completion = dep_completion[node as usize];
                    round_completion[round_of(node)] =
                        round_completion[round_of(node)].max(completion);
                    complete_node!(node, completion, queue);
                }
            }
        }

        while scheduled < rounds * n_ands {
            if (cycle as usize) < future.len() {
                let batch = std::mem::take(&mut future[cycle as usize]);
                for node in batch {
                    heap.push(ReadyGate {
                        priority: priority(node),
                        node,
                    });
                }
            }
            let mut busy = 0usize;
            let mut state_queue: Vec<u32> = Vec::new();
            while busy < cores {
                let Some(ReadyGate { node, .. }) = heap.pop() else {
                    break;
                };
                let r = round_of(node);
                let g = local_of(node);
                assignments.push(SlotAssignment {
                    cycle,
                    core: busy,
                    round: r as u32,
                    gate: graph.and_gates[g],
                });
                scheduled += 1;
                busy += 1;
                round_completion[r] = round_completion[r].max(cycle + 1);
                // AND completes at `cycle`; dependents may start at cycle+1.
                for &dep in &dependents[node as usize] {
                    let slot = &mut dep_completion[dep as usize];
                    if *slot < cycle + 1 {
                        *slot = cycle + 1;
                    }
                    pending[dep as usize] -= 1;
                    if pending[dep as usize] == 0 {
                        if is_and(dep) {
                            push_future(&mut future, cycle + 1, dep);
                        } else {
                            state_queue.push(dep);
                        }
                    }
                }
            }
            // Cascade completed STATE nodes (zero-latency).
            while let Some(node) = state_queue.pop() {
                let completion = dep_completion[node as usize];
                round_completion[round_of(node)] = round_completion[round_of(node)].max(completion);
                let mut sub: Vec<u32> = Vec::new();
                complete_node!(node, completion, sub);
                for dep in sub {
                    if is_and(dep) {
                        push_future(&mut future, dep_completion[dep as usize], dep);
                    } else {
                        state_queue.push(dep);
                    }
                }
            }
            busy_per_cycle.push(busy);
            cycle += 1;
        }

        let cycles = cycle;
        // Steady-state II: average gap between round completions over the
        // second half of the run.
        let steady_state_ii = if rounds >= 4 {
            let half = rounds / 2;
            (round_completion[rounds - 1] - round_completion[half - 1]) as f64
                / (rounds - half) as f64
        } else {
            cycles as f64 / rounds as f64
        };
        // Idle-core stats over the steady window (skip pipeline fill/drain).
        let steady_start = round_completion.first().copied().unwrap_or(0) as usize;
        let steady_end = if rounds >= 2 {
            round_completion[rounds - 2] as usize
        } else {
            cycles as usize
        };
        let max_idle_cores_steady = busy_per_cycle
            .iter()
            .take(steady_end)
            .skip(steady_start.min(steady_end))
            .map(|&b| cores - b)
            .max()
            .unwrap_or(0);
        let utilization = (rounds * n_ands) as f64 / (cycles * cores as u64) as f64;

        let stats = ScheduleStats {
            cycles,
            ands_per_round: n_ands,
            rounds,
            steady_state_ii,
            first_round_latency: round_completion[0],
            utilization,
            max_idle_cores_steady,
        };
        let segments = graph.segments;
        Schedule {
            cores,
            assignments,
            round_completion,
            stats,
            segments,
        }
    }

    /// The schedule of `rounds` MAC rounds of `config.mac_circuit()` on
    /// `cores` cores, compiled once per process and shared: the gate order
    /// is a compile-time artifact the fabric merely streams. Round counts
    /// follow model shapes a peer can choose, so the map is bounded
    /// ([`SHARED_SCHEDULES`] entries, [`SHARED_SLOTS`] slots in total,
    /// oldest evicted first); a schedule too large to keep is not cached.
    pub(crate) fn shared(config: &AcceleratorConfig, cores: usize, rounds: usize) -> Arc<Schedule> {
        let key: ScheduleKey = (
            config.bit_width,
            config.acc_width,
            config.signed,
            cores,
            rounds,
        );
        let lookup = |map: &SharedSchedules| {
            map.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, schedule)| Arc::clone(schedule))
        };
        if let Some(hit) = lookup(&SHARED.lock().unwrap_or_else(PoisonError::into_inner)) {
            return hit;
        }
        // Compile outside the lock; if another thread won the race, adopt
        // its schedule so every holder of one key shares one allocation.
        let compiled = Arc::new(Schedule::compile(
            config.mac_circuit().netlist(),
            cores,
            rounds,
            config.state_range(),
        ));
        let mut map = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = lookup(&map) {
            return hit;
        }
        if compiled.assignments.len() <= SHARED_SLOTS {
            map.push_back((key, Arc::clone(&compiled)));
            let mut slots: usize = map.iter().map(|(_, s)| s.assignments.len()).sum();
            while map.len() > SHARED_SCHEDULES || slots > SHARED_SLOTS {
                let Some((_, evicted)) = map.pop_front() else {
                    break;
                };
                slots -= evicted.assignments.len();
            }
        }
        compiled
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Slot assignments in execution order (cycle-major, then core).
    pub fn assignments(&self) -> &[SlotAssignment] {
        &self.assignments
    }

    /// Cycle at which each round completed.
    pub fn round_completion(&self) -> &[u64] {
        &self.round_completion
    }

    /// Aggregate metrics.
    pub fn stats(&self) -> &ScheduleStats {
        &self.stats
    }

    /// Segment of the `i`-th AND gate of a round (indexed by the order ANDs
    /// appear in the netlist).
    pub fn segment_of_and(&self, and_index: usize) -> Segment {
        self.segments[and_index]
    }

    /// Per-cycle core occupancy over `[from, to)` — the Figure 3 view.
    pub fn occupancy(&self, from: u64, to: u64) -> Vec<Vec<Option<SlotAssignment>>> {
        let mut grid = vec![vec![None; self.cores]; (to - from) as usize];
        for a in &self.assignments {
            if a.cycle >= from && a.cycle < to {
                grid[(a.cycle - from) as usize][a.core] = Some(*a);
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::timing::TimingModel;

    fn compile_for(b: usize, rounds: usize) -> Schedule {
        let config = AcceleratorConfig::new(b);
        let mac = config.mac_circuit();
        let cores = TimingModel::paper(b).cores();
        Schedule::compile(mac.netlist(), cores, rounds, config.state_range())
    }

    #[test]
    fn every_and_gate_scheduled_exactly_once() {
        let config = AcceleratorConfig::new(8);
        let mac = config.mac_circuit();
        let rounds = 5;
        let sched = compile_for(8, rounds);
        let n_ands = mac.netlist().stats().and_gates;
        assert_eq!(sched.assignments().len(), rounds * n_ands);
        let mut seen = std::collections::HashSet::new();
        for a in sched.assignments() {
            assert!(seen.insert((a.round, a.gate)), "duplicate {a:?}");
        }
    }

    #[test]
    fn no_core_double_booked() {
        let sched = compile_for(8, 8);
        let mut seen = std::collections::HashSet::new();
        for a in sched.assignments() {
            assert!(seen.insert((a.cycle, a.core)), "double booking {a:?}");
        }
    }

    #[test]
    fn dependencies_respected() {
        // Re-derive wire availability from the schedule and verify every
        // gate's inputs are ready when it runs.
        let config = AcceleratorConfig::new(8);
        let mac = config.mac_circuit();
        let netlist = mac.netlist();
        let rounds = 4;
        let sched = compile_for(8, rounds);
        // when[(round, gate)] = cycle
        let mut when = std::collections::HashMap::new();
        for a in sched.assignments() {
            when.insert((a.round, a.gate), a.cycle);
        }
        // Wire ready times per round, resolved iteratively.
        for r in 0..rounds as u32 {
            let mut ready = vec![0u64; netlist.wire_count()];
            // Accumulator inputs carry from the previous round's outputs.
            if r > 0 {
                // Upper-bounded by that round's completion; precise check on
                // gates below uses per-wire times, so recompute them.
                // (Handled by the outer loop ordering: previous iteration
                // stored its output readiness in `prev_out`.)
            }
            let prev_out = if r > 0 {
                Some(round_output_ready(netlist, &when, r - 1, &config))
            } else {
                None
            };
            if let Some(prev) = &prev_out {
                for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
                    if config.state_range().contains(&pos) {
                        ready[wire.index()] = prev[pos - config.state_range().start];
                    }
                }
            }
            for gate in netlist.gates() {
                let in_ready = ready[gate.a.index()].max(ready[gate.b.index()]);
                match gate.kind {
                    max_netlist::GateKind::And => {
                        let gate_idx = netlist
                            .gates()
                            .iter()
                            .position(|g| std::ptr::eq(g, gate))
                            .unwrap() as u32;
                        let cycle = when[&(r, gate_idx)];
                        assert!(
                            cycle >= in_ready,
                            "round {r} gate {gate_idx} at {cycle} before inputs ready {in_ready}"
                        );
                        ready[gate.out.index()] = cycle + 1;
                    }
                    _ => ready[gate.out.index()] = in_ready,
                }
            }
        }

        fn round_output_ready(
            netlist: &max_netlist::Netlist,
            when: &std::collections::HashMap<(u32, u32), u64>,
            r: u32,
            config: &AcceleratorConfig,
        ) -> Vec<u64> {
            let mut ready = vec![0u64; netlist.wire_count()];
            if r > 0 {
                let prev = round_output_ready(netlist, when, r - 1, config);
                for (pos, wire) in netlist.garbler_inputs().iter().enumerate() {
                    if config.state_range().contains(&pos) {
                        ready[wire.index()] = prev[pos - config.state_range().start];
                    }
                }
            }
            for (gate_idx, gate) in netlist.gates().iter().enumerate() {
                let in_ready = ready[gate.a.index()].max(ready[gate.b.index()]);
                ready[gate.out.index()] = match gate.kind {
                    max_netlist::GateKind::And => when[&(r, gate_idx as u32)] + 1,
                    _ => in_ready,
                };
            }
            netlist.outputs().iter().map(|w| ready[w.index()]).collect()
        }
    }

    #[test]
    fn pipelining_beats_serial_rounds() {
        let sched1 = compile_for(8, 1);
        let sched16 = compile_for(8, 16);
        let serial_estimate = sched1.stats().cycles * 16;
        assert!(
            sched16.stats().cycles < serial_estimate,
            "pipelined {} !< serial {}",
            sched16.stats().cycles,
            serial_estimate
        );
    }

    #[test]
    fn steady_state_ii_near_paper_formula() {
        // The paper's formula: 3·b cycles per MAC. Our measured II must be
        // within 25% (our circuit library's AND count differs slightly from
        // the paper's hand-built datapath).
        for b in [8usize, 16] {
            let sched = compile_for(b, 12);
            let paper = (3 * b) as f64;
            let measured = sched.stats().steady_state_ii;
            assert!(
                (measured - paper).abs() / paper < 0.25,
                "b = {b}: measured II {measured} vs paper {paper}"
            );
        }
    }

    #[test]
    fn utilization_is_high() {
        let sched = compile_for(8, 16);
        assert!(
            sched.stats().utilization > 0.85,
            "utilization {}",
            sched.stats().utilization
        );
    }

    #[test]
    fn occupancy_grid_matches_assignments() {
        let sched = compile_for(8, 2);
        let grid = sched.occupancy(0, sched.stats().cycles);
        let filled: usize = grid
            .iter()
            .flat_map(|row| row.iter())
            .filter(|s| s.is_some())
            .count();
        assert_eq!(filled, sched.assignments().len());
    }

    #[test]
    fn segments_cover_both_kinds() {
        let config = AcceleratorConfig::new(8);
        let mac = config.mac_circuit();
        let sched = compile_for(8, 1);
        let n_ands = mac.netlist().stats().and_gates;
        let mux = (0..n_ands)
            .filter(|&i| sched.segment_of_and(i) == Segment::MuxAdd)
            .count();
        let tree = n_ands - mux;
        assert!(mux > 0 && tree > 0, "mux {mux} tree {tree}");
    }

    #[test]
    fn round_completions_monotone() {
        let sched = compile_for(8, 10);
        let comps = sched.round_completion();
        for pair in comps.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    fn shared_for(b: usize, rounds: usize) -> Arc<Schedule> {
        let cores = TimingModel::paper(b).cores();
        Schedule::shared(&AcceleratorConfig::new(b), cores, rounds)
    }

    #[test]
    fn shared_schedule_equals_a_fresh_compile() {
        for b in [8usize, 16] {
            for rounds in [1usize, 3, 8] {
                let shared = shared_for(b, rounds);
                let fresh = compile_for(b, rounds);
                assert_eq!(
                    shared.assignments(),
                    fresh.assignments(),
                    "b={b} r={rounds}"
                );
                assert_eq!(shared.stats(), fresh.stats(), "b={b} r={rounds}");
                assert_eq!(shared.round_completion(), fresh.round_completion());
            }
        }
    }

    #[test]
    fn shared_schedule_key_covers_the_whole_config() {
        // Same (b, rounds), different circuit: must not alias.
        let signed = AcceleratorConfig::new(8);
        let unsigned = AcceleratorConfig::new(8).unsigned();
        let wide = AcceleratorConfig::new(8).with_acc_width(32);
        let cores = TimingModel::paper(8).cores();
        for config in [signed, unsigned, wide] {
            let mac = config.mac_circuit();
            let shared = Schedule::shared(&config, cores, 2);
            let fresh = Schedule::compile(mac.netlist(), cores, 2, config.state_range());
            assert_eq!(shared.assignments(), fresh.assignments(), "{config:?}");
        }
    }

    #[test]
    fn racing_threads_share_one_allocation() {
        // 5 rounds: a key no other test in this binary asks for, so both
        // threads start from a miss.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let ask = || {
                barrier.wait();
                shared_for(8, 5)
            };
            let first = scope.spawn(ask);
            let second = scope.spawn(ask);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &shared_for(8, 5)));
    }

    #[test]
    fn shared_map_is_bounded_and_evicts_oldest() {
        // More distinct round counts than the map keeps (other tests'
        // entries only add to the pressure).
        for rounds in 100..100 + SHARED_SCHEDULES + 8 {
            let shared = shared_for(4, rounds);
            assert_eq!(shared.stats().rounds, rounds);
            let map = SHARED.lock().unwrap();
            assert!(map.len() <= SHARED_SCHEDULES, "{} entries", map.len());
            let slots: usize = map.iter().map(|(_, s)| s.assignments.len()).sum();
            assert!(slots <= SHARED_SLOTS);
        }
        // An evicted key recompiles to the same schedule.
        let again = shared_for(4, 100);
        let fresh = compile_for(4, 100);
        assert_eq!(again.assignments(), fresh.assignments());
        assert_eq!(again.stats(), fresh.stats());
    }

    #[test]
    fn oversized_schedule_is_served_but_not_kept() {
        let config = AcceleratorConfig::new(4);
        let mac = config.mac_circuit();
        let rounds = SHARED_SLOTS / mac.netlist().stats().and_gates + 1;
        let cores = TimingModel::paper(4).cores();
        let big = Schedule::shared(&config, cores, rounds);
        assert!(big.assignments().len() > SHARED_SLOTS);
        let map = SHARED.lock().unwrap();
        assert!(map.iter().all(|(key, _)| key.4 != rounds));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let config = AcceleratorConfig::new(8);
        let mac = config.mac_circuit();
        Schedule::compile(mac.netlist(), 0, 1, config.state_range());
    }
}
