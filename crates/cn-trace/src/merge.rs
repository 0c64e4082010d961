//! K-way merging of pre-sorted runs via a tournament (loser) tree.
//!
//! A binary heap pays a sift-down *and* a sift-up per emitted record
//! (`pop` + `push`, ~2·log₂k comparisons). A loser tree stores, at each
//! internal node, the loser of the match played there; replacing the
//! winner's head and replaying it against the losers along one
//! leaf-to-root path costs exactly ⌈log₂k⌉ comparisons — the classic
//! replacement-selection merger. [`KeyLoserTree`] is the one merge tree
//! of the workspace: [`crate::Trace::merge`], the consumer side of the
//! sharded parallel generator, and the out-of-core run merge all drive
//! it, and all three find how much of the winning run to take with the
//! one gallop, [`run_prefix`].
//!
//! The tree never owns the runs — it holds one packed `u128` *head key*
//! per run and the caller installs the next key whenever a run's head is
//! consumed. For trace merging the key is [`TraceRecord::merge_key`],
//! whose integer order is exactly the record [`Ord`]. Ties are broken by
//! run index (lower index wins), so a merge over runs with duplicated
//! keys is *stable* with respect to run order and fully deterministic.

use crate::record::TraceRecord;

/// Sentinel key marking an exhausted run in a [`KeyLoserTree`]. Live keys
/// must be strictly smaller.
pub const EXHAUSTED_KEY: u128 = u128::MAX;

/// The tree key of a run whose next record is `head` ([`EXHAUSTED_KEY`]
/// for a run with none left).
#[inline]
pub fn head_key(head: Option<&TraceRecord>) -> u128 {
    head.map_or(EXHAUSTED_KEY, TraceRecord::merge_key)
}

/// A struct-of-arrays tournament tree over packed `u128` keys.
///
/// Two parallel arrays — `keys: Vec<u128>` and `losers: Vec<u32>` — so a
/// replay is ⌈log₂k⌉ integer compares over dense memory and nothing
/// else. Run payloads (the records themselves) live wherever the caller
/// keeps them, addressed by the winning run index.
///
/// ```
/// use cn_trace::{KeyLoserTree, EXHAUSTED_KEY};
/// let runs: [&[u128]; 3] = [&[1, 4, 7], &[2, 5], &[0, 9]];
/// let mut cursors = [0usize; 3];
/// let mut tree = KeyLoserTree::new(runs.iter().map(|r| r[0]).collect());
/// let mut out = Vec::new();
/// while let Some(w) = tree.winner() {
///     out.push(tree.key(w));
///     cursors[w] += 1;
///     tree.replace_winner(runs[w].get(cursors[w]).copied().unwrap_or(EXHAUSTED_KEY));
/// }
/// assert_eq!(out, vec![0, 1, 2, 4, 5, 7, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct KeyLoserTree {
    /// Current head key of each run ([`EXHAUSTED_KEY`] = exhausted).
    keys: Vec<u128>,
    /// `losers[0]` is the overall winner; `losers[1..k]` hold the loser of
    /// the match at each internal node.
    losers: Vec<u32>,
    /// Number of runs whose key is live.
    live: usize,
}

impl KeyLoserTree {
    /// Build the tree from the head key of each run ([`EXHAUSTED_KEY`] for
    /// runs that start empty). Cost: k − 1 comparisons.
    pub fn new(keys: Vec<u128>) -> KeyLoserTree {
        let k = keys.len();
        let live = keys.iter().filter(|&&h| h != EXHAUSTED_KEY).count();
        if k == 0 {
            return KeyLoserTree {
                keys,
                losers: Vec::new(),
                live,
            };
        }
        // Bottom-up tournament in a complete-binary-tree layout: leaf `j`
        // sits at node `k + j`, internal nodes are `1..k`, the parent of
        // node `n` is `n / 2`. Descending order guarantees both children
        // of an internal node are decided before it plays its match.
        let mut losers = vec![0u32; k];
        let mut winners = vec![u32::MAX; 2 * k];
        for j in 0..k {
            winners[k + j] = j as u32;
        }
        for node in (1..k).rev() {
            let a = winners[2 * node];
            let b = winners[2 * node + 1];
            let (w, l) = if key_beats(&keys, a, b) {
                (a, b)
            } else {
                (b, a)
            };
            winners[node] = w;
            losers[node] = l;
        }
        losers[0] = winners[1];
        KeyLoserTree { keys, losers, live }
    }

    /// Index of the run holding the smallest live key, or `None` when every
    /// run is exhausted.
    #[inline]
    pub fn winner(&self) -> Option<usize> {
        let w = *self.losers.first()? as usize;
        (self.keys[w] != EXHAUSTED_KEY).then_some(w)
    }

    /// Current head key of run `run` ([`EXHAUSTED_KEY`] once exhausted).
    #[inline]
    pub fn key(&self, run: usize) -> u128 {
        self.keys[run]
    }

    /// Number of runs that still have elements.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Index of the run holding the *second*-smallest head — the run that
    /// would win if the current winner's run were exhausted — or `None`
    /// when at most one run is live.
    ///
    /// Classic tournament property: every run other than the winner lost
    /// exactly once along some root path, and the overall runner-up lost
    /// its match *against the winner*, so it is one of the ⌈log₂k⌉ losers
    /// stored on the winner's leaf-to-root path. This is the batched-merge
    /// primitive: every element of the winner's run that precedes the
    /// runner-up's head ([`run_prefix`]) can be emitted without touching
    /// the tree, which is then replayed once per run.
    pub fn runner_up(&self) -> Option<usize> {
        let w = self.winner()?;
        let k = self.keys.len();
        let mut best: Option<u32> = None;
        let mut node = (k + w) / 2;
        while node > 0 {
            let cand = self.losers[node];
            if self.keys[cand as usize] != EXHAUSTED_KEY {
                best = Some(match best {
                    Some(b) if !key_beats(&self.keys, cand, b) => b,
                    _ => cand,
                });
            }
            node /= 2;
        }
        best.map(|b| b as usize)
    }

    /// Replace the winner's key with `next` ([`EXHAUSTED_KEY`] when its run
    /// is exhausted) and replay matches along the winner's leaf-to-root
    /// path: ⌈log₂k⌉ integer comparisons, no allocation. No-op when the
    /// merge is already complete.
    #[inline]
    pub fn replace_winner(&mut self, next: u128) {
        let Some(w) = self.winner() else { return };
        self.keys[w] = next;
        if next == EXHAUSTED_KEY {
            self.live -= 1;
        }
        let k = self.keys.len();
        let mut winner = w as u32;
        let mut node = (k + w) / 2;
        while node > 0 {
            if key_beats(&self.keys, self.losers[node], winner) {
                std::mem::swap(&mut self.losers[node], &mut winner);
            }
            node /= 2;
        }
        self.losers[0] = winner;
    }
}

/// Does run `a` beat run `b` under key order? Smaller key wins; ties
/// (including two exhausted runs) break toward the lower run index.
#[inline]
fn key_beats(keys: &[u128], a: u32, b: u32) -> bool {
    let (ka, kb) = (keys[a as usize], keys[b as usize]);
    ka < kb || (ka == kb && a < b)
}

/// Length of the prefix of a sorted run that precedes a merge bound: the
/// elements `i < len` whose `key_at(i)` is `< bound`, or `<= bound` when
/// `wins_ties` (the run owning the prefix has the lower index, so it wins
/// key ties against the run owning the bound).
///
/// Gallops (doubling probe, then binary search): O(1) for the short runs
/// of a fine-grained interleave, O(log prefix) key reads for a long
/// winning run rather than one comparison per record.
pub fn run_prefix(
    len: usize,
    key_at: impl Fn(usize) -> u128,
    bound: u128,
    wins_ties: bool,
) -> usize {
    let precedes = |i: usize| {
        let k = key_at(i);
        k < bound || (wins_ties && k == bound)
    };
    if len == 0 || !precedes(0) {
        return 0;
    }
    let mut lo = 0usize; // known to precede
    let mut step = 1usize;
    while lo + step < len && precedes(lo + step) {
        lo += step;
        step *= 2;
    }
    // Invariant: precedes(lo), and !precedes(hi) or hi == len.
    let mut hi = (lo + step).min(len);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if precedes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_key(run: &[u128]) -> u128 {
        run.first().copied().unwrap_or(EXHAUSTED_KEY)
    }

    /// Merge one key at a time, returning each `(key, run)` in output
    /// order; `each` sees the tree before every pop.
    fn merge_with(runs: &[Vec<u128>], mut each: impl FnMut(&KeyLoserTree)) -> Vec<(u128, usize)> {
        let mut cursors = vec![1usize; runs.len()];
        let mut tree = KeyLoserTree::new(runs.iter().map(|r| first_key(r)).collect());
        let mut out = Vec::new();
        while let Some(w) = tree.winner() {
            each(&tree);
            out.push((tree.key(w), w));
            let next = runs[w].get(cursors[w]).copied().unwrap_or(EXHAUSTED_KEY);
            cursors[w] += 1;
            tree.replace_winner(next);
        }
        assert_eq!(tree.live(), 0);
        out
    }

    fn merged_keys(runs: &[Vec<u128>]) -> Vec<u128> {
        merge_with(runs, |_| ())
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    fn sorted_keys(runs: &[Vec<u128>]) -> Vec<u128> {
        let mut all: Vec<u128> = runs.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Deterministic xorshift so the tests need no external RNG crate.
    fn random_runs(seed: u64, max_k: u64, max_len: u64, max_key: u64) -> Vec<Vec<Vec<u128>>> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..200)
            .map(|_| {
                (0..next() % max_k)
                    .map(|_| {
                        let mut r: Vec<u128> = (0..next() % max_len)
                            .map(|_| u128::from(next() % max_key))
                            .collect();
                        r.sort_unstable();
                        r
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn edge_cases() {
        // Empty tree.
        let mut tree = KeyLoserTree::new(Vec::new());
        assert_eq!(tree.winner(), None);
        assert_eq!(tree.runner_up(), None);
        assert_eq!(tree.live(), 0);
        tree.replace_winner(EXHAUSTED_KEY); // no-op, no panic

        // All runs exhausted from the start.
        let tree = KeyLoserTree::new(vec![EXHAUSTED_KEY; 3]);
        assert_eq!(tree.winner(), None);
        assert_eq!(tree.live(), 0);
        // Single live run: winner but no runner-up.
        let tree = KeyLoserTree::new(vec![EXHAUSTED_KEY, 7, EXHAUSTED_KEY]);
        assert_eq!(tree.winner(), Some(1));
        assert_eq!(tree.runner_up(), None);
        assert_eq!(tree.live(), 1);
        // Empty and single-element runs among longer ones.
        let runs = vec![vec![], vec![5], vec![], vec![1, 9], vec![5]];
        assert_eq!(merged_keys(&runs), vec![1, 5, 5, 9]);
        assert_eq!(merged_keys(&[vec![1, 2, 3]]), vec![1, 2, 3]);
    }

    #[test]
    fn merges_across_run_counts() {
        // Exercise every k in 1..=9 (non-powers-of-two stress the
        // complete-binary-tree index math).
        for k in 1..=9u128 {
            let runs: Vec<Vec<u128>> = (0..k)
                .map(|i| (0..5).map(|j| j * k + i).collect())
                .collect();
            assert_eq!(merged_keys(&runs), sorted_keys(&runs), "k = {k}");
        }
    }

    #[test]
    fn random_runs_merge_to_their_sort() {
        for (trial, runs) in random_runs(0xD1CE_BA5E_0F00_D00D, 12, 20, 50)
            .iter()
            .enumerate()
        {
            assert_eq!(merged_keys(runs), sorted_keys(runs), "trial {trial}");
        }
    }

    #[test]
    fn ties_break_toward_lower_run_index() {
        // Equal keys drain run 0 first at every tie: the merge is stable.
        let order = merge_with(&[vec![1, 2], vec![1, 2]], |_| ());
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn runner_up_is_the_second_smallest_head() {
        // heads 5, 3, 9, 3: run 1 wins (ties break low), run 3 is next.
        let tree = KeyLoserTree::new(vec![5, 3, 9, 3]);
        assert_eq!(tree.winner(), Some(1));
        assert_eq!(tree.runner_up(), Some(3));
        assert_eq!(tree.key(3), 3);
    }

    #[test]
    fn runner_up_matches_naive_minimum_throughout_a_merge() {
        for (trial, runs) in random_runs(0xFEED_F00D_CAFE_BEEF, 10, 12, 30)
            .iter()
            .enumerate()
        {
            let k = runs.len();
            merge_with(runs, |tree| {
                // Naive second-smallest: min over every live non-winner
                // head, ties toward the lower run index.
                let w = tree.winner().unwrap();
                let naive = (0..k)
                    .filter(|&i| i != w && tree.key(i) != EXHAUSTED_KEY)
                    .min_by(|&a, &b| tree.key(a).cmp(&tree.key(b)).then(a.cmp(&b)));
                assert_eq!(tree.runner_up(), naive, "trial {trial}, k {k}");
            });
        }
    }

    #[test]
    fn live_tracks_unexhausted_runs() {
        // Seen before each pop; `merge_with` checks the final zero.
        let mut live_seen = Vec::new();
        merge_with(&[vec![1], vec![2, 3]], |tree| live_seen.push(tree.live()));
        assert_eq!(live_seen, vec![2, 1, 1]);
    }

    #[test]
    fn run_prefix_matches_linear_scan() {
        // Sorted run of keys 0, 2, 4, ..., 58.
        let run: Vec<u128> = (0..60).step_by(2).collect();
        for bound in 0..62u128 {
            for wins_ties in [false, true] {
                let got = run_prefix(run.len(), |i| run[i], bound, wins_ties);
                let expect = run
                    .iter()
                    .take_while(|&&k| k < bound || (wins_ties && k == bound))
                    .count();
                assert_eq!(got, expect, "bound {bound}, wins_ties {wins_ties}");
            }
        }
        assert_eq!(run_prefix(0, |_| unreachable!(), 0, true), 0);
        assert_eq!(
            run_prefix(run.len(), |i| run[i], EXHAUSTED_KEY, true),
            run.len()
        );
    }

    #[test]
    fn block_drain_via_runner_up_equals_sort() {
        // Drive the merge the way the sharded consumer and the out-of-core
        // export do: emit the winner's whole run prefix up to the
        // runner-up's head with direct reads, then replay the tree once
        // per run.
        let mut fixed = vec![vec![
            vec![0u128, 1, 2, 3, 10, 11],
            vec![4, 5, 6],
            vec![2, 7, 12],
            vec![],
        ]];
        fixed.extend(random_runs(0x1234_5678_9ABC_DEF0, 9, 40, 25));
        for (trial, runs) in fixed.iter().enumerate() {
            let mut cursors = vec![0usize; runs.len()];
            let mut tree = KeyLoserTree::new(runs.iter().map(|r| first_key(r)).collect());
            let mut out = Vec::new();
            while let Some(w) = tree.winner() {
                let (bound, wins_ties) = match tree.runner_up() {
                    None => (EXHAUSTED_KEY, true),
                    Some(u) => (tree.key(u), w < u),
                };
                let rest = &runs[w][cursors[w]..];
                let len = run_prefix(rest.len(), |i| rest[i], bound, wins_ties);
                assert!(len >= 1, "the winner's own head precedes the bound");
                out.extend_from_slice(&rest[..len]);
                cursors[w] += len;
                tree.replace_winner(first_key(&runs[w][cursors[w]..]));
            }
            assert_eq!(out, sorted_keys(runs), "trial {trial}");
        }
    }
}
