//! Processes, FIFO channels, and the network container.

use crate::resource::ResourceVector;
use serde::{Deserialize, Serialize};

/// Index of a process within a [`ProcessNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub u32);

/// Index of a channel within a [`ProcessNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl ProcessId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A process: a potentially recurrent, potentially periodic task
/// implemented on an FPGA (paper §I).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Process {
    /// Human-readable name (statement name for polyhedral-derived PPNs).
    pub name: String,
    /// Resources needed to implement this process (`R_p`).
    pub resources: ResourceVector,
    /// Cycles one firing occupies the process (≥ 1).
    pub latency: u64,
    /// Total number of firings this process performs over the
    /// application's execution (the polyhedral domain cardinality).
    pub firings: u64,
}

/// A FIFO channel between two processes. A *multicast* channel carries
/// one token stream from `from` to `to` **and** every process in
/// `extra_consumers`: each consumer sees the full stream, but the
/// producer emits it once — on a multi-FPGA platform the stream crosses
/// each inter-FPGA boundary once, no matter how many consumers sit
/// behind it (the hypergraph lowering models this exactly; the graph
/// lowering double-counts it, one edge per consumer).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Channel {
    /// Producing process.
    pub from: ProcessId,
    /// Consuming process (the first consumer for multicast channels).
    pub to: ProcessId,
    /// Total tokens transported over the application's execution —
    /// lowered to the bandwidth weight of the partitioning graph.
    pub volume: u64,
    /// FIFO depth in tokens (≥ 1); writes block when full.
    pub capacity: u64,
    /// Tokens present before execution starts (breaks deadlocks in
    /// cyclic networks, like delays in SDF).
    #[serde(default)]
    pub initial_tokens: u64,
    /// Additional consumers of the same stream (empty for ordinary
    /// point-to-point channels).
    #[serde(default)]
    pub extra_consumers: Vec<ProcessId>,
}

impl Channel {
    /// All consumers of this channel's stream: `to` first, then the
    /// extra multicast consumers.
    pub fn consumers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        std::iter::once(self.to).chain(self.extra_consumers.iter().copied())
    }

    /// True when the channel multicasts to more than one consumer.
    pub fn is_multicast(&self) -> bool {
        !self.extra_consumers.is_empty()
    }
}

/// A (polyhedral/Kahn) process network.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessNetwork {
    processes: Vec<Process>,
    channels: Vec<Channel>,
}

impl ProcessNetwork {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a process, returning its id.
    pub fn add_process(&mut self, p: Process) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(p);
        id
    }

    /// Convenience: add a process with LUT-only resources.
    pub fn add_simple_process(
        &mut self,
        name: impl Into<String>,
        luts: u64,
        latency: u64,
        firings: u64,
    ) -> ProcessId {
        self.add_process(Process {
            name: name.into(),
            resources: ResourceVector::luts(luts),
            latency: latency.max(1),
            firings,
        })
    }

    /// Add a channel, returning its id. Panics on unknown endpoints or
    /// zero capacity.
    pub fn add_channel(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        volume: u64,
        capacity: u64,
    ) -> ChannelId {
        self.add_channel_with_initial(from, to, volume, capacity, 0)
    }

    /// Add a channel carrying `initial_tokens` before execution starts.
    pub fn add_channel_with_initial(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        volume: u64,
        capacity: u64,
        initial_tokens: u64,
    ) -> ChannelId {
        assert!(from.index() < self.processes.len(), "unknown producer");
        assert!(to.index() < self.processes.len(), "unknown consumer");
        assert!(capacity >= 1, "FIFO capacity must be at least 1");
        assert!(initial_tokens <= capacity, "initial tokens exceed capacity");
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            from,
            to,
            volume,
            capacity,
            initial_tokens,
            extra_consumers: Vec::new(),
        });
        id
    }

    /// Add a multicast channel: one stream of `volume` tokens from
    /// `from` to every process in `consumers` (≥ 1, distinct, not the
    /// producer). Panics on unknown endpoints, an empty or duplicate
    /// consumer list, or zero capacity.
    pub fn add_multicast_channel(
        &mut self,
        from: ProcessId,
        consumers: &[ProcessId],
        volume: u64,
        capacity: u64,
    ) -> ChannelId {
        assert!(
            !consumers.is_empty(),
            "multicast needs at least one consumer"
        );
        assert!(from.index() < self.processes.len(), "unknown producer");
        for (i, &c) in consumers.iter().enumerate() {
            assert!(c.index() < self.processes.len(), "unknown consumer");
            assert!(c != from, "producer cannot consume its own multicast");
            assert!(!consumers[..i].contains(&c), "duplicate consumer");
        }
        assert!(capacity >= 1, "FIFO capacity must be at least 1");
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            from,
            to: consumers[0],
            volume,
            capacity,
            initial_tokens: 0,
            extra_consumers: consumers[1..].to_vec(),
        });
        id
    }

    /// True when any channel multicasts to more than one consumer.
    pub fn has_multicast(&self) -> bool {
        self.channels.iter().any(|c| c.is_multicast())
    }

    /// Flatten multicast channels into per-consumer point-to-point
    /// clones (same volume, capacity, and initial tokens per consumer).
    /// Returns `self` unchanged when there is no multicast. Used by the
    /// dataflow simulators, which model each consumer's FIFO cursor
    /// separately.
    pub fn expand_multicast(&self) -> ProcessNetwork {
        self.expand_multicast_with_origin().0
    }

    /// [`expand_multicast`](ProcessNetwork::expand_multicast), also
    /// returning `origin[expanded] = original channel index` so callers
    /// can tell which clones carry the *same* stream (the mapped-system
    /// simulator charges one link transport per stream per destination
    /// FPGA, not one per clone).
    pub fn expand_multicast_with_origin(&self) -> (ProcessNetwork, Vec<u32>) {
        if !self.has_multicast() {
            return (self.clone(), (0..self.channels.len() as u32).collect());
        }
        let mut net = ProcessNetwork {
            processes: self.processes.clone(),
            channels: Vec::with_capacity(self.channels.len()),
        };
        let mut origin = Vec::with_capacity(self.channels.len());
        for (i, ch) in self.channels.iter().enumerate() {
            for consumer in ch.consumers() {
                net.channels.push(Channel {
                    from: ch.from,
                    to: consumer,
                    volume: ch.volume,
                    capacity: ch.capacity,
                    initial_tokens: ch.initial_tokens,
                    extra_consumers: Vec::new(),
                });
                origin.push(i as u32);
            }
        }
        (net, origin)
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Process by id.
    pub fn process(&self, p: ProcessId) -> &Process {
        &self.processes[p.index()]
    }

    /// Channel by id.
    pub fn channel(&self, c: ChannelId) -> &Channel {
        &self.channels[c.index()]
    }

    /// All process ids.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.processes.len()).map(|i| ProcessId(i as u32))
    }

    /// All channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.channels.len()).map(|i| ChannelId(i as u32))
    }

    /// Channels feeding `p` — as primary or multicast consumer —
    /// (excluding self-loops, which carry state and never block a
    /// single-rate firing schedule at capacity ≥ 1).
    pub fn inputs_of(&self, p: ProcessId) -> Vec<ChannelId> {
        self.channel_ids()
            .filter(|&c| {
                let ch = &self.channels[c.index()];
                ch.from != p && ch.consumers().any(|x| x == p)
            })
            .collect()
    }

    /// Channels produced by `p` (excluding self-loops).
    pub fn outputs_of(&self, p: ProcessId) -> Vec<ChannelId> {
        self.channel_ids()
            .filter(|&c| self.channels[c.index()].from == p && self.channels[c.index()].to != p)
            .collect()
    }

    /// Processes with no (non-self) input channels.
    pub fn sources(&self) -> Vec<ProcessId> {
        self.process_ids()
            .filter(|&p| self.inputs_of(p).is_empty())
            .collect()
    }

    /// Processes with no (non-self) output channels.
    pub fn sinks(&self) -> Vec<ProcessId> {
        self.process_ids()
            .filter(|&p| self.outputs_of(p).is_empty())
            .collect()
    }

    /// True when the channel graph (ignoring self-loops) is acyclic.
    /// Multicast channels contribute one edge per consumer.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm
        let n = self.num_processes();
        let mut indeg = vec![0usize; n];
        for ch in &self.channels {
            for c in ch.consumers() {
                if ch.from != c {
                    indeg[c.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for ch in &self.channels {
                if ch.from.index() != i {
                    continue;
                }
                for c in ch.consumers() {
                    if c.index() != i {
                        indeg[c.index()] -= 1;
                        if indeg[c.index()] == 0 {
                            queue.push(c.index());
                        }
                    }
                }
            }
        }
        seen == n
    }

    /// Total resources of the whole network.
    pub fn total_resources(&self) -> ResourceVector {
        self.processes.iter().map(|p| p.resources).sum()
    }

    /// Total channel volume (bytes/tokens over the app run).
    pub fn total_volume(&self) -> u64 {
        self.channels.iter().map(|c| c.volume).sum()
    }

    /// Structural validation: endpoints exist, latencies/capacities ≥ 1,
    /// and the channel volumes, counted once per consumer as the
    /// edge-cut lowering adds them, sum within `u64` — so no merged edge
    /// of [`lower_to_graph`](crate::lower::lower_to_graph) can overflow.
    pub fn validate(&self) -> Result<(), String> {
        for (i, p) in self.processes.iter().enumerate() {
            if p.latency == 0 {
                return Err(format!("process {i} ({}) has zero latency", p.name));
            }
        }
        for (i, c) in self.channels.iter().enumerate() {
            if c.from.index() >= self.processes.len()
                || c.consumers().any(|x| x.index() >= self.processes.len())
            {
                return Err(format!("channel {i} references unknown process"));
            }
            if c.capacity == 0 {
                return Err(format!("channel {i} has zero capacity"));
            }
            for (j, x) in c.extra_consumers.iter().enumerate() {
                if *x == c.to || c.extra_consumers[..j].contains(x) {
                    return Err(format!("channel {i} lists a consumer twice"));
                }
                if *x == c.from {
                    return Err(format!("channel {i} multicasts back to its own producer"));
                }
            }
        }
        self.channels
            .iter()
            .flat_map(|c| c.consumers().map(|_| c.volume.max(1)))
            .try_fold(0u64, u64::checked_add)
            .ok_or_else(|| "channel volumes sum past u64::MAX (overflow)".to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline3() -> ProcessNetwork {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("src", 10, 1, 100);
        let b = n.add_simple_process("mid", 20, 2, 100);
        let c = n.add_simple_process("sink", 30, 1, 100);
        n.add_channel(a, b, 100, 4);
        n.add_channel(b, c, 100, 4);
        n
    }

    #[test]
    fn structure_queries() {
        let n = pipeline3();
        assert_eq!(n.num_processes(), 3);
        assert_eq!(n.num_channels(), 2);
        assert_eq!(n.sources(), vec![ProcessId(0)]);
        assert_eq!(n.sinks(), vec![ProcessId(2)]);
        assert_eq!(n.inputs_of(ProcessId(1)), vec![ChannelId(0)]);
        assert_eq!(n.outputs_of(ProcessId(1)), vec![ChannelId(1)]);
        assert!(n.is_acyclic());
        n.validate().unwrap();
    }

    #[test]
    fn cycles_are_detected() {
        let mut n = pipeline3();
        n.add_channel(ProcessId(2), ProcessId(0), 10, 2);
        assert!(!n.is_acyclic());
    }

    #[test]
    fn self_loops_ignored_for_acyclicity_and_io() {
        let mut n = pipeline3();
        n.add_channel(ProcessId(1), ProcessId(1), 50, 1);
        assert!(n.is_acyclic());
        assert_eq!(n.inputs_of(ProcessId(1)).len(), 1);
        assert_eq!(n.outputs_of(ProcessId(1)).len(), 1);
    }

    #[test]
    fn totals() {
        let n = pipeline3();
        assert_eq!(n.total_resources(), ResourceVector::luts(60));
        assert_eq!(n.total_volume(), 200);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut n = pipeline3();
        n.add_channel(ProcessId(0), ProcessId(2), 1, 0);
    }

    #[test]
    fn validation_catches_zero_latency() {
        let mut n = ProcessNetwork::new();
        n.add_process(Process {
            name: "bad".into(),
            resources: ResourceVector::ZERO,
            latency: 0,
            firings: 1,
        });
        assert!(n.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let n = pipeline3();
        let s = serde_json::to_string(&n).unwrap();
        let back: ProcessNetwork = serde_json::from_str(&s).unwrap();
        assert_eq!(back, n);
    }

    fn multicast_net() -> ProcessNetwork {
        let mut n = ProcessNetwork::new();
        let p = n.add_simple_process("prod", 10, 1, 50);
        let a = n.add_simple_process("a", 10, 1, 50);
        let b = n.add_simple_process("b", 10, 1, 50);
        let c = n.add_simple_process("c", 10, 1, 50);
        n.add_multicast_channel(p, &[a, b, c], 50, 4);
        n
    }

    #[test]
    fn multicast_channel_structure() {
        let n = multicast_net();
        assert!(n.has_multicast());
        assert_eq!(n.num_channels(), 1);
        let ch = n.channel(ChannelId(0));
        assert!(ch.is_multicast());
        assert_eq!(ch.consumers().count(), 3);
        assert_eq!(n.inputs_of(ProcessId(2)), vec![ChannelId(0)]);
        assert_eq!(n.inputs_of(ProcessId(3)), vec![ChannelId(0)]);
        assert_eq!(n.sinks().len(), 3);
        assert!(n.is_acyclic());
        n.validate().unwrap();
        // total volume counts the stream once, not once per consumer
        assert_eq!(n.total_volume(), 50);
    }

    #[test]
    fn expand_multicast_flattens_to_clones() {
        let n = multicast_net();
        let flat = n.expand_multicast();
        assert!(!flat.has_multicast());
        assert_eq!(flat.num_channels(), 3);
        assert_eq!(flat.num_processes(), n.num_processes());
        for c in flat.channel_ids() {
            assert_eq!(flat.channel(c).volume, 50);
            assert_eq!(flat.channel(c).from, ProcessId(0));
        }
        // no-multicast networks come back unchanged
        let plain = pipeline3();
        assert_eq!(plain.expand_multicast(), plain);
    }

    #[test]
    fn multicast_cycles_detected_through_extras() {
        let mut n = pipeline3();
        // sink multicasts back to src: cycle via an extra consumer
        n.add_multicast_channel(ProcessId(2), &[ProcessId(1), ProcessId(0)], 5, 2);
        assert!(!n.is_acyclic());
    }

    #[test]
    fn multicast_serde_roundtrip() {
        let n = multicast_net();
        let s = serde_json::to_string(&n).unwrap();
        let back: ProcessNetwork = serde_json::from_str(&s).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    #[should_panic]
    fn duplicate_multicast_consumer_rejected() {
        let mut n = pipeline3();
        n.add_multicast_channel(ProcessId(0), &[ProcessId(1), ProcessId(1)], 5, 2);
    }

    #[test]
    fn validate_rejects_hand_built_self_consuming_multicast() {
        // JSON inputs bypass add_multicast_channel's asserts; validate()
        // must hold the same invariants at the deserialisation boundary
        let mut n = pipeline3();
        n.add_channel(ProcessId(0), ProcessId(1), 5, 2);
        let bad = n.num_channels() - 1;
        n.channels[bad].extra_consumers = vec![ProcessId(0)];
        assert!(n.validate().unwrap_err().contains("own producer"));
        n.channels[bad].extra_consumers = vec![ProcessId(2), ProcessId(2)];
        assert!(n.validate().unwrap_err().contains("twice"));
    }

    #[test]
    fn validate_rejects_volumes_summing_past_u64_max() {
        // two parallel channels would lower to one edge heavier than u64
        let mut n = pipeline3();
        n.add_channel(ProcessId(0), ProcessId(1), u64::MAX - 200, 4);
        n.validate().unwrap();
        n.add_channel(ProcessId(1), ProcessId(0), 1, 4);
        assert!(n.validate().unwrap_err().contains("overflow"));
    }
}
