//! An indexed max-heap keyed by move gain.
//!
//! FM and greedy growing repeatedly ask "which node has the highest
//! gain?" while the gains of a moved node's neighbours change. Instead of
//! the textbook doubly-linked bucket lists we use a binary heap that
//! records where each node's entry sits: a node has at most one entry,
//! and a gain update changes it in place and sifts it up or down. The
//! heap never holds more than n entries, and each operation costs
//! O(log n), which keeps FM's pass at O(moves · log n) in safe Rust.
//!
//! Entries are ordered by `(gain, node id)`: the highest gain first, the
//! higher node id on ties.

/// Position of a node that has no entry.
const ABSENT: u32 = u32::MAX;

/// Max-heap of `(gain, node)` with at most one entry per node.
#[derive(Clone, Debug, Default)]
pub struct GainHeap {
    /// Binary max-heap of `(gain, node)`; the best entry is `heap[0]`.
    heap: Vec<(i64, u32)>,
    /// Each node's index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl GainHeap {
    /// Heap over `n` nodes, initially empty.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= ABSENT as usize,
            "positions fit below the absent marker"
        );
        GainHeap {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
        }
    }

    /// Insert `node` with `gain`, or change the gain of its entry.
    pub fn update(&mut self, node: u32, gain: i64) {
        let at = self.pos[node as usize];
        if at == ABSENT {
            self.heap.push((gain, node));
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = at as usize;
            let old = std::mem::replace(&mut self.heap[i].0, gain);
            if gain > old {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Remove and return the best `(gain, node)`.
    pub fn pop(&mut self) -> Option<(i64, u32)> {
        let last = self.heap.pop()?;
        self.pos[last.1 as usize] = ABSENT;
        if self.heap.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.heap[0], last);
        self.pos[top.1 as usize] = ABSENT;
        self.sift_down(0);
        Some(top)
    }

    /// The best `(gain, node)`, left in place.
    pub fn peek(&self) -> Option<(i64, u32)> {
        self.heap.first().copied()
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for &(_, node) in &self.heap {
            self.pos[node as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Move the entry at `i` towards the root until its parent beats it.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] > entry {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    /// Move the entry at `i` towards the leaves until it beats both
    /// children.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if entry > self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }

    #[inline]
    fn place(&mut self, i: usize, entry: (i64, u32)) {
        self.heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_gain_order() {
        let mut h = GainHeap::new(3);
        h.update(0, 5);
        h.update(1, 9);
        h.update(2, -3);
        assert_eq!(h.pop(), Some((9, 1)));
        assert_eq!(h.pop(), Some((5, 0)));
        assert_eq!(h.pop(), Some((-3, 2)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn update_changes_the_one_entry() {
        let mut h = GainHeap::new(2);
        h.update(0, 10);
        h.update(0, 1); // lowered in place: 10 is gone
        h.update(1, 5);
        assert_eq!(h.pop(), Some((5, 1)));
        assert_eq!(h.pop(), Some((1, 0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut h = GainHeap::new(1);
        h.update(0, 2);
        assert_eq!(h.peek(), Some((2, 0)));
        assert_eq!(h.peek(), Some((2, 0)));
        assert_eq!(h.pop(), Some((2, 0)));
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn ties_go_to_the_higher_node_id() {
        let mut h = GainHeap::new(3);
        h.update(0, 7);
        h.update(1, 7);
        h.update(2, 7);
        assert_eq!(h.pop(), Some((7, 2)));
        assert_eq!(h.pop(), Some((7, 1)));
        assert_eq!(h.pop(), Some((7, 0)));
    }

    #[test]
    fn a_popped_node_can_come_back() {
        let mut h = GainHeap::new(2);
        h.update(0, 3);
        h.update(1, 1);
        assert_eq!(h.pop(), Some((3, 0)));
        h.update(0, -4);
        assert_eq!(h.pop(), Some((1, 1)));
        assert_eq!(h.pop(), Some((-4, 0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn clear_empties_and_forgets_positions() {
        let mut h = GainHeap::new(3);
        h.update(0, 1);
        h.update(2, 8);
        h.clear();
        assert_eq!(h.peek(), None);
        h.update(2, -1);
        h.update(1, 0);
        assert_eq!(h.pop(), Some((0, 1)));
        assert_eq!(h.pop(), Some((-1, 2)));
        assert_eq!(h.pop(), None);
    }
}
