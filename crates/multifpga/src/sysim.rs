//! Cycle-stepped simulation of a mapped network with link contention.
//!
//! Extends the quota-spread firing semantics of
//! [`ppn_model::simulate`](mod@ppn_model::simulate) with a transport stage: tokens produced on a
//! channel whose endpoints live on *different* FPGAs first enter a
//! per-channel transit queue; each cycle, every FPGA pair's link moves
//! at most `bmax` tokens (round-robin over the channels sharing the
//! link) from transit queues into the destination FIFOs. Intra-FPGA
//! channels deliver instantly.
//!
//! This is the executable argument for the paper's bandwidth constraint:
//! a mapping whose pairwise traffic stays under `bmax` suffers only a
//! bounded slowdown versus the infinite-bandwidth baseline, while a
//! METIS-style mapping that saturates one link serialises on it.

use crate::mapping::Mapping;
use crate::platform::Platform;
use ppn_model::{ProcessId, ProcessNetwork};
use serde::{Deserialize, Serialize};

/// Options for [`simulate_mapped`].
#[derive(Clone, Debug)]
pub struct SystemOptions {
    /// Hard cycle limit.
    pub max_cycles: u64,
}

impl Default for SystemOptions {
    fn default() -> Self {
        SystemOptions {
            max_cycles: 10_000_000,
        }
    }
}

/// Result of a mapped-system simulation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Cycles until completion (or cutoff).
    pub cycles: u64,
    /// Completed firings per process.
    pub fired: Vec<u64>,
    /// True when every process finished its firings.
    pub completed: bool,
    /// True on dataflow deadlock.
    pub deadlocked: bool,
    /// Tokens moved per FPGA pair (indexed `a * k + b`, symmetric).
    pub link_tokens: Vec<u64>,
    /// Highest per-link utilisation: tokens / (bmax · cycles).
    pub max_link_utilization: f64,
    /// Total firings per cycle.
    pub throughput: f64,
}

#[inline]
fn quota(volume: u64, firings: u64, idx: u64) -> u64 {
    if firings == 0 {
        return 0;
    }
    let (v, f, i) = (volume as u128, firings as u128, idx as u128);
    (((i + 1) * v / f) - (i * v / f)) as u64
}

/// Simulate `net` mapped onto `platform` by `mapping`.
///
/// Multicast channels are flattened first (each consumer gets its own
/// FIFO cursor, see [`ProcessNetwork::expand_multicast_with_origin`]),
/// but clones carrying the *same* stream to the *same* destination FPGA
/// share one link transport: the stream crosses each boundary once,
/// matching the once-per-boundary charging of
/// [`Mapping::traffic_matrix`] and the `ppn-hyper` connectivity model.
/// For multicast networks the per-channel vectors in the report are
/// indexed by the expanded channel list.
pub fn simulate_mapped(
    net: &ProcessNetwork,
    mapping: &Mapping,
    platform: &Platform,
    opts: &SystemOptions,
) -> SystemReport {
    let expanded;
    let origin;
    let net = if net.has_multicast() {
        let (flat, map) = net.expand_multicast_with_origin();
        expanded = flat;
        origin = map;
        &expanded
    } else {
        origin = (0..net.num_channels() as u32).collect();
        net
    };
    net.validate().expect("network must validate");
    assert_eq!(mapping.assign.len(), net.num_processes());
    assert_eq!(mapping.k, platform.k());
    let np = net.num_processes();
    let nc = net.num_channels();
    let k = platform.k();

    let inputs: Vec<Vec<usize>> = net
        .process_ids()
        .map(|p| net.inputs_of(p).iter().map(|c| c.index()).collect())
        .collect();
    let outputs: Vec<Vec<usize>> = net
        .process_ids()
        .map(|p| net.outputs_of(p).iter().map(|c| c.index()).collect())
        .collect();
    let chan = |c: usize| net.channel(ppn_model::ChannelId(c as u32));
    let cross: Vec<Option<(usize, usize)>> = (0..nc)
        .map(|c| {
            let ch = chan(c);
            let (a, b) = (
                mapping.fpga_of(ch.from.index()),
                mapping.fpga_of(ch.to.index()),
            );
            if a == b {
                None
            } else {
                Some((a.min(b), a.max(b)))
            }
        })
        .collect();
    let volume: Vec<u64> = (0..nc).map(|c| chan(c).volume).collect();
    let prod_f: Vec<u64> = (0..nc).map(|c| net.process(chan(c).from).firings).collect();
    let cons_f: Vec<u64> = (0..nc).map(|c| net.process(chan(c).to).firings).collect();

    // transport groups: cross-FPGA legs of the same original stream
    // with the same destination FPGA move in lockstep over one budget
    // charge (their transit queues are identical by construction —
    // same producer, same quota schedule)
    let mut stream_groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut by_key: std::collections::HashMap<(u32, usize), usize> =
            std::collections::HashMap::new();
        for c in 0..nc {
            if cross[c].is_none() {
                continue;
            }
            let dest = mapping.fpga_of(chan(c).to.index());
            match by_key.entry((origin[c], dest)) {
                std::collections::hash_map::Entry::Occupied(g) => {
                    stream_groups[*g.get()].push(c);
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(stream_groups.len());
                    stream_groups.push(vec![c]);
                }
            }
        }
    }

    let mut fifo: Vec<u64> = (0..nc).map(|c| chan(c).initial_tokens).collect();
    let mut transit: Vec<u64> = vec![0; nc];
    let mut reserved: Vec<u64> = vec![0; nc];
    let mut pending_out: Vec<Vec<u64>> = (0..np).map(|p| vec![0; outputs[p].len()]).collect();
    let mut fired = vec![0u64; np];
    let mut started = vec![0u64; np];
    let mut remaining: Vec<u64> = net.process_ids().map(|p| net.process(p).firings).collect();
    let mut busy_until: Vec<Option<u64>> = vec![None; np];
    let mut link_tokens = vec![0u64; k * k];
    let mut rr_offset = 0usize; // round-robin fairness over channels

    let mut deadlocked = false;
    let mut t: u64 = 0;
    while t < opts.max_cycles {
        // 1. firing completions
        for p in 0..np {
            if busy_until[p] == Some(t) {
                busy_until[p] = None;
                fired[p] += 1;
                for (oi, &c) in outputs[p].iter().enumerate() {
                    let q = pending_out[p][oi];
                    match cross[c] {
                        None => {
                            // space was reserved at firing start
                            reserved[c] -= q;
                            fifo[c] += q;
                        }
                        Some(_) => transit[c] += q,
                    }
                    pending_out[p][oi] = 0;
                }
            }
        }

        // 2. link transport: per-pair budget, round-robin over stream
        // groups; all legs of a group advance together (broadcast
        // backpressure: the shared stream stalls until every receiver
        // on that FPGA has space)
        let mut budget = vec![platform.bmax; k * k];
        let ng = stream_groups.len();
        for step in 0..ng {
            let g = &stream_groups[(step + rr_offset) % ng];
            let lead = g[0];
            let (a, b) = cross[lead].expect("groups hold cross channels only");
            debug_assert!(g.iter().all(|&c| transit[c] == transit[lead]));
            if transit[lead] == 0 {
                continue;
            }
            let space = g
                .iter()
                .map(|&c| chan(c).capacity.saturating_sub(fifo[c] + reserved[c]))
                .min()
                .unwrap();
            let pair = a * k + b;
            let move_n = transit[lead].min(budget[pair]).min(space);
            if move_n > 0 {
                for &c in g {
                    transit[c] -= move_n;
                    fifo[c] += move_n;
                }
                budget[pair] -= move_n;
                link_tokens[pair] += move_n;
                link_tokens[b * k + a] += move_n;
            }
        }
        rr_offset = rr_offset.wrapping_add(1);

        // 3. firing starts (fixpoint within the cycle)
        loop {
            let mut any = false;
            for p in 0..np {
                if busy_until[p].is_some() || remaining[p] == 0 {
                    continue;
                }
                let idx = started[p];
                let can_read = inputs[p]
                    .iter()
                    .all(|&c| fifo[c] >= quota(volume[c], cons_f[c], idx));
                // reserve space in the FIFO (cross-FPGA production is
                // reserved in the destination FIFO once it arrives; the
                // transit queue itself is unbounded, modelling the
                // producer-side DMA buffer)
                let can_write = outputs[p].iter().all(|&c| {
                    let q = quota(volume[c], prod_f[c], idx);
                    match cross[c] {
                        None => fifo[c] + reserved[c] + q <= chan(c).capacity,
                        Some(_) => true,
                    }
                });
                if can_read && can_write {
                    for &c in &inputs[p] {
                        fifo[c] -= quota(volume[c], cons_f[c], idx);
                    }
                    for (oi, &c) in outputs[p].iter().enumerate() {
                        let q = quota(volume[c], prod_f[c], idx);
                        if cross[c].is_none() {
                            reserved[c] += q;
                        }
                        pending_out[p][oi] = q;
                    }
                    started[p] += 1;
                    remaining[p] -= 1;
                    busy_until[p] = Some(t + net.process(ProcessId(p as u32)).latency);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        let all_done = remaining.iter().all(|&r| r == 0)
            && busy_until.iter().all(|b| b.is_none())
            && transit.iter().all(|&x| x == 0);
        if all_done {
            break;
        }
        let in_flight = busy_until.iter().any(|b| b.is_some());
        let transiting = transit.iter().any(|&x| x > 0);
        if !in_flight && !transiting {
            if remaining.iter().any(|&r| r > 0) {
                deadlocked = true;
            }
            break;
        }
        t += 1;
    }

    let total: u64 = fired.iter().sum();
    let completed = net
        .process_ids()
        .all(|p| fired[p.index()] == net.process(p).firings);
    let max_link_utilization = if t == 0 || platform.bmax == 0 {
        0.0
    } else {
        let max_tokens = (0..k)
            .flat_map(|a| ((a + 1)..k).map(move |b| (a, b)))
            .map(|(a, b)| link_tokens[a * k + b])
            .max()
            .unwrap_or(0);
        max_tokens as f64 / (platform.bmax as f64 * t as f64)
    };
    SystemReport {
        cycles: t,
        fired,
        completed,
        deadlocked,
        link_tokens,
        max_link_utilization,
        throughput: if t > 0 { total as f64 / t as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::Partition;

    /// Producer → consumer pipeline with one channel of volume V.
    fn pipe(firings: u64) -> ProcessNetwork {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 100, 1, firings);
        let b = n.add_simple_process("b", 100, 1, firings);
        n.add_channel(a, b, firings, 8);
        n
    }

    fn map2(assign: Vec<u32>) -> Mapping {
        Mapping::from_partition(&Partition::from_assignment(assign, 2).unwrap())
    }

    #[test]
    fn colocated_pipeline_matches_base_simulator() {
        let net = pipe(50);
        let platform = Platform::homogeneous(2, 1000, 1);
        let m = map2(vec![0, 0]);
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.completed, "{r:?}");
        let base = ppn_model::simulate(&net, &ppn_model::SimOptions::default());
        // same pipeline behaviour: within a couple of cycles
        assert!(
            r.cycles.abs_diff(base.cycles) <= 3,
            "{} vs {}",
            r.cycles,
            base.cycles
        );
        assert_eq!(r.link_tokens.iter().sum::<u64>(), 0);
    }

    #[test]
    fn wide_link_adds_bounded_latency() {
        let net = pipe(50);
        let platform = Platform::homogeneous(2, 1000, 10);
        let m = map2(vec![0, 1]);
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.completed, "{r:?}");
        // 1 token/cycle demand ≤ 10/cycle link: only pipeline fill extra
        assert!(
            r.cycles <= 60,
            "bounded slowdown expected, got {}",
            r.cycles
        );
        assert_eq!(r.link_tokens[1], 50);
    }

    #[test]
    fn saturated_link_serialises_throughput() {
        // producer makes 4 tokens per firing (volume 200 over 50
        // firings) but the link moves only 1 per cycle
        let mut net = ProcessNetwork::new();
        let a = net.add_simple_process("a", 100, 1, 50);
        let b = net.add_simple_process("b", 100, 1, 200);
        net.add_channel(a, b, 200, 16);
        let platform = Platform::homogeneous(2, 1000, 1);
        let m = map2(vec![0, 1]);
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.completed, "{r:?}");
        // 200 tokens over a 1-token/cycle link: ≥ 200 cycles
        assert!(r.cycles >= 200, "link should bottleneck: {}", r.cycles);
        assert!(r.max_link_utilization > 0.9, "{}", r.max_link_utilization);
    }

    #[test]
    fn faster_link_means_fewer_cycles() {
        // both endpoints fire 50 times, 4 tokens per firing over the
        // link: at bmax 8 the link keeps up (≈ one firing per cycle); at
        // bmax 1 each consumer firing waits 4 cycles for its tokens
        let mk = |bmax: u64| {
            let mut net = ProcessNetwork::new();
            let a = net.add_simple_process("a", 100, 1, 50);
            let b = net.add_simple_process("b", 100, 1, 50);
            net.add_channel(a, b, 200, 32);
            let platform = Platform::homogeneous(2, 1000, bmax);
            let m = map2(vec![0, 1]);
            simulate_mapped(&net, &m, &platform, &SystemOptions::default()).cycles
        };
        let slow = mk(1);
        let fast = mk(8);
        assert!(
            fast * 2 < slow,
            "bmax 8 ({fast}) should clearly beat bmax 1 ({slow})"
        );
    }

    #[test]
    fn deadlock_detection_survives_mapping() {
        let mut net = ProcessNetwork::new();
        let a = net.add_simple_process("a", 10, 1, 5);
        let b = net.add_simple_process("b", 10, 1, 5);
        net.add_channel(a, b, 5, 2);
        net.add_channel(b, a, 5, 2);
        let platform = Platform::homogeneous(2, 1000, 4);
        let m = map2(vec![0, 1]);
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.deadlocked);
        assert!(!r.completed);
    }

    #[test]
    fn link_tokens_symmetric_and_conserved() {
        let net = pipe(30);
        let platform = Platform::homogeneous(2, 1000, 4);
        let m = map2(vec![0, 1]);
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert_eq!(r.link_tokens[1], r.link_tokens[2]);
        assert_eq!(r.link_tokens[1], 30);
    }

    #[test]
    fn multicast_network_completes_with_remote_consumers() {
        // producer on FPGA 0 multicasting to one local and two remote
        // consumers: every consumer sees the full stream, but the
        // shared stream crosses the boundary exactly once — agreeing
        // with Mapping::traffic_matrix's once-per-boundary charge
        let mut net = ProcessNetwork::new();
        let p = net.add_simple_process("p", 10, 1, 30);
        let a = net.add_simple_process("a", 10, 1, 30);
        let b = net.add_simple_process("b", 10, 1, 30);
        let c = net.add_simple_process("c", 10, 1, 30);
        net.add_multicast_channel(p, &[a, b, c], 30, 8);
        let platform = Platform::homogeneous(2, 1000, 4);
        let m = Mapping::from_partition(&Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap());
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.completed, "{r:?}");
        assert_eq!(r.fired, vec![30, 30, 30, 30]);
        assert_eq!(r.link_tokens[1], 30, "one stream, one boundary crossing");
        assert_eq!(
            r.link_tokens[1],
            m.traffic_matrix(&net)[1],
            "simulator and certifier must agree on the transport model"
        );
    }

    #[test]
    fn certified_multicast_mapping_sustains_its_bandwidth() {
        // the reviewer scenario: two consumers behind one boundary,
        // volume 60, bmax 60 — Mapping::check certifies it, so the
        // simulator must show only bounded pipeline-fill slowdown, not
        // the 2x serialisation a per-consumer transport would cause
        let mut net = ProcessNetwork::new();
        let p = net.add_simple_process("p", 10, 1, 60);
        let a = net.add_simple_process("a", 10, 1, 60);
        let b = net.add_simple_process("b", 10, 1, 60);
        net.add_multicast_channel(p, &[a, b], 60, 8);
        let platform = Platform::homogeneous(2, 1000, 60);
        let m = Mapping::from_partition(&Partition::from_assignment(vec![0, 1, 1], 2).unwrap());
        assert!(m.check(&net, &platform, 60).is_feasible());
        let r = simulate_mapped(&net, &m, &platform, &SystemOptions::default());
        assert!(r.completed, "{r:?}");
        assert_eq!(r.link_tokens[1], 60);
        assert!(
            r.cycles <= 70,
            "1 token/cycle against a 60-token link must not serialise: {}",
            r.cycles
        );
    }
}
