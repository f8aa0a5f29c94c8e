//! The merge step's centre-similarity table (§5.2 step 3).
//!
//! The greedy merge loop needs, before every merge, the most similar pair
//! of live centres. Between two merges only one centre moves (the
//! destination's) and one disappears (the source's), so everything else
//! the loop knows stays true. [`MergeTable`] keeps exactly that knowledge
//! in flat, position-indexed storage:
//!
//! * a row per cluster, in ascending-[`ClusterId`] order, fixed for the
//!   whole step (an absorbed cluster's row goes dead, rows never shift);
//! * a copy of every centre (`k × d`, contiguous), its zero lead (the
//!   count of leading exact zeros) and, for cosine, its norm — computed
//!   once per centre, not once per pair;
//! * the upper triangle of pairwise similarities (`k(k−1)/2` cells);
//! * per row, the best partner among the *later* rows: the largest
//!   similarity above ρ, ties to the earliest row.
//!
//! Picking the next pair is then one pass over the `k` cached partners.
//! A merge re-scores the destination's `k` cells, and re-derives the
//! cached partner only of rows that pointed at the source or the
//! destination; every other row compares its one changed cell against
//! what it already holds.
//!
//! Every pass over a centre starts where that centre can be nonzero. A
//! feature is read over time-sorted timestamps, so a template first seen
//! after the window opened is zero on its lead, and in a deployment younger
//! than the window (any cold start) the lead is most of the vector. A norm
//! walks its centre's own suffix, a cosine dot product the shared suffix
//! from the later of the two leads (before it one factor is zero), and an
//! inverse-L2 distance the suffix from the earlier lead (before it both
//! are). The skipped terms are exact zeros, and a sum that starts at the
//! first term it keeps ends on the same bits: over non-negative counts
//! every cell equals `qb_linalg`'s full-vector similarity bit for bit (over
//! signed values a cosine cell could differ only in the sign of an exact
//! zero, which never clears ρ ≥ 0). A pass costs the history a centre
//! has, `d − lead`, not the window `d` it spans; once every template is
//! older than the window the leads are zero and the cost is the full one.

use crate::feature::zero_lead;
use crate::online::{Cluster, ClusterId, SimilarityMetric};

/// Work done by one merge step, as counts: they repeat exactly for a given
/// input, so the `clusterer.merge_*` counters and the complexity guard in
/// the tests can hold the step to its bound without a timer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MergeStats {
    /// Centre similarities computed: `k(k−1)/2` up front, then one row of
    /// live centres per merge.
    pub scored: usize,
    /// Rows whose cached partner a merge invalidated and that were scanned
    /// again: the destination's, plus those that named the source or the
    /// destination.
    pub rescanned_rows: usize,
    /// Coordinates the similarity, norm and zero-lead passes walked, per
    /// vector: a full-vector table would read `d` per similarity.
    pub coords_read: usize,
}

pub(crate) struct MergeTable {
    metric: SimilarityMetric,
    rho: f64,
    dim: usize,
    /// Row → cluster id, ascending.
    ids: Vec<ClusterId>,
    /// Row → member count; 0 marks a row whose cluster was absorbed.
    sizes: Vec<usize>,
    /// Row-major copies of the centres, `dim` values per row.
    centers: Vec<f64>,
    /// Row → number of leading exact zeros of the centre.
    leads: Vec<usize>,
    /// Row → Euclidean norm of the centre's suffix (cosine only; empty
    /// otherwise).
    norms: Vec<f64>,
    /// Upper triangle, row-major: cell `(i, j)` with `i < j` lives at
    /// `tri(i, j)`, so a row's later partners are contiguous.
    sims: Vec<f64>,
    /// Row → the later row with the largest similarity above ρ (ties to
    /// the earliest) and that similarity; `None` when no later live row
    /// clears ρ.
    best: Vec<Option<(usize, f64)>>,
    stats: MergeStats,
}

impl MergeTable {
    /// Scores every pair of `clusters` (which must arrive in ascending id
    /// order, as `BTreeMap::values` yields them) and caches each row's
    /// best partner.
    pub fn new<'a>(
        metric: SimilarityMetric,
        rho: f64,
        clusters: impl Iterator<Item = &'a Cluster>,
    ) -> Self {
        let clusters: Vec<&Cluster> = clusters.collect();
        debug_assert!(clusters.windows(2).all(|w| w[0].id < w[1].id));
        let k = clusters.len();
        let dim = clusters.first().map_or(0, |c| c.center.len());
        let mut centers = Vec::with_capacity(k * dim);
        for c in &clusters {
            assert_eq!(c.center.len(), dim, "merge step: center length mismatch");
            centers.extend_from_slice(&c.center);
        }
        let mut table = Self {
            metric,
            rho,
            dim,
            ids: clusters.iter().map(|c| c.id).collect(),
            sizes: clusters.iter().map(|c| c.members.len()).collect(),
            centers,
            leads: vec![0; k],
            norms: match metric {
                SimilarityMetric::Cosine => vec![0.0; k],
                SimilarityMetric::InverseL2 => Vec::new(),
            },
            sims: vec![0.0; k * k.saturating_sub(1) / 2],
            best: vec![None; k],
            stats: MergeStats::default(),
        };
        for row in 0..k {
            table.measure(row);
        }
        for i in 0..k {
            for j in i + 1..k {
                let cell = table.tri(i, j);
                table.sims[cell] = table.score(i, j);
            }
            table.rescan(i);
        }
        table
    }

    pub fn id(&self, row: usize) -> ClusterId {
        self.ids[row]
    }

    pub fn size(&self, row: usize) -> usize {
        self.sizes[row]
    }

    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// The most similar live pair above ρ as rows `(a, b)`, `a < b`; ties
    /// go to the smallest `a`, then the smallest `b`.
    pub fn pick(&self) -> Option<(usize, usize)> {
        let mut pick: Option<(usize, usize, f64)> = None;
        for (i, partner) in self.best.iter().enumerate() {
            let Some((j, sim)) = *partner else { continue };
            if pick.is_none_or(|(_, _, top)| sim > top) {
                pick = Some((i, j, sim));
            }
        }
        pick.map(|(i, j, _)| (i, j))
    }

    /// Records that row `src` was absorbed into row `dst`, whose cluster
    /// now has `size` members and centre `center`.
    pub fn absorb(&mut self, dst: usize, src: usize, center: &[f64], size: usize) {
        assert_eq!(center.len(), self.dim, "merge step: center length mismatch");
        self.sizes[src] = 0;
        self.best[src] = None;
        self.sizes[dst] = size;
        self.centers[dst * self.dim..(dst + 1) * self.dim].copy_from_slice(center);
        self.measure(dst);
        // Rows before `dst` see its column move: a row that named the
        // source or the destination is scanned again, any other lets the
        // one changed cell compete with the partner it holds.
        for other in 0..dst {
            if self.sizes[other] == 0 {
                continue;
            }
            let sim = self.score(dst, other);
            let cell = self.tri(other, dst);
            self.sims[cell] = sim;
            let held = self.best[other];
            if held.is_some_and(|(j, _)| j == src || j == dst) {
                self.stats.rescanned_rows += 1;
                self.rescan(other);
            } else if sim > self.rho
                && held.is_none_or(|(j, top)| sim > top || (sim == top && dst < j))
            {
                self.best[other] = Some((dst, sim));
            }
        }
        for other in dst + 1..self.ids.len() {
            if self.sizes[other] > 0 {
                let cell = self.tri(dst, other);
                self.sims[cell] = self.score(dst, other);
            }
        }
        // Rows between `dst` and `src` never had a `dst` cell, only the
        // vanished `src` one.
        for row in dst + 1..src {
            if self.best[row].is_some_and(|(j, _)| j == src) {
                self.stats.rescanned_rows += 1;
                self.rescan(row);
            }
        }
        self.stats.rescanned_rows += 1;
        self.rescan(dst);
    }

    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.ids.len());
        // Rows 0..i hold (k−1) + (k−2) + … + (k−i) cells.
        i * (2 * self.ids.len() - i - 1) / 2 + (j - i - 1)
    }

    fn center(&self, row: usize) -> &[f64] {
        &self.centers[row * self.dim..(row + 1) * self.dim]
    }

    /// Caches `row`'s zero lead and, for cosine, the norm of its suffix.
    fn measure(&mut self, row: usize) {
        let lead = zero_lead(self.center(row));
        self.leads[row] = lead;
        self.stats.coords_read += (lead + 1).min(self.dim);
        if self.metric == SimilarityMetric::Cosine {
            self.norms[row] = qb_linalg::norm(&self.center(row)[lead..]);
            self.stats.coords_read += self.dim - lead;
        }
    }

    /// Similarity of two rows' centres: `qb_linalg::cosine_similarity`
    /// with the two norms taken from the cache, or `1 / (1 + L2)`, each
    /// summed from the first coordinate whose term can be nonzero (same
    /// bits, see the module docs).
    fn score(&mut self, a: usize, b: usize) -> f64 {
        self.stats.scored += 1;
        let (lead_a, lead_b) = (self.leads[a], self.leads[b]);
        match self.metric {
            SimilarityMetric::Cosine => {
                let (na, nb) = (self.norms[a], self.norms[b]);
                if na == 0.0 || nb == 0.0 {
                    return 0.0;
                }
                let from = lead_a.max(lead_b);
                self.stats.coords_read += self.dim - from;
                let dot = qb_linalg::dot(&self.center(a)[from..], &self.center(b)[from..]);
                (dot / (na * nb)).clamp(-1.0, 1.0)
            }
            SimilarityMetric::InverseL2 => {
                let from = lead_a.min(lead_b);
                self.stats.coords_read += self.dim - from;
                let (ca, cb) = (&self.center(a)[from..], &self.center(b)[from..]);
                1.0 / (1.0 + qb_linalg::l2_distance(ca, cb))
            }
        }
    }

    /// Re-derives `row`'s cached partner from its cells.
    fn rescan(&mut self, row: usize) {
        let mut best: Option<(usize, f64)> = None;
        for j in row + 1..self.ids.len() {
            let sim = self.sims[self.tri(row, j)];
            if self.sizes[j] > 0 && sim > self.rho && best.is_none_or(|(_, top)| sim > top) {
                best = Some((j, sim));
            }
        }
        self.best[row] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 32;
    /// A month of hourly samples, as `wide_churn`'s features span.
    const LATTICE_DIM: usize = 500;

    fn singletons(centers: Vec<Vec<f64>>) -> Vec<Cluster> {
        centers
            .into_iter()
            .enumerate()
            .map(|(i, center)| Cluster {
                id: ClusterId(i as u64),
                members: vec![i as u64],
                center,
                volume: 1.0,
            })
            .collect()
    }

    /// A cold start's merge step in miniature: `n` singleton clusters in
    /// `families` shapes of six buckets each, with per-cluster wobble. In
    /// every other family the clusters come in bit-identical triples, and a
    /// few centres are all-zero.
    fn storm(n: usize, families: usize) -> Vec<Cluster> {
        let mut centers: Vec<Vec<f64>> = Vec::new();
        for i in 0..n {
            let (family, member) = (i % families, i / families);
            let center = if i % 83 == 7 {
                vec![0.0; DIM]
            } else if family % 2 == 0 && member % 3 != 0 {
                centers[i - (member % 3) * families].clone()
            } else {
                let mut c = vec![0.0; DIM];
                for b in 0..6 {
                    let wobble = ((i * 7919 + b * 104_729) % 1000) as f64 / 5_000.0;
                    c[(family * 5 + b * 3) % DIM] = 2.0 + ((family + b) % 6) as f64 + wobble;
                }
                c
            };
            centers.push(center);
        }
        singletons(centers)
    }

    /// A cold start on a time-sorted lattice: `n` singletons that arrived
    /// in eight waves over the window's last 40 coordinates. Each is
    /// exactly zero before its first-seen coordinate and, from there on,
    /// follows one of four phases of a four-hour cycle with per-cluster
    /// wobble; every 97th never recorded an arrival.
    fn lattice_storm(n: usize) -> Vec<Cluster> {
        let centers = (0..n)
            .map(|i| {
                let first = LATTICE_DIM - 5 * (i * 8 / n + 1);
                let mut center = vec![0.0; LATTICE_DIM];
                if i % 97 != 7 {
                    for (t, c) in center.iter_mut().enumerate().skip(first) {
                        let wobble = ((i * 7919 + t * 104_729) % 1000) as f64 / 5_000.0;
                        *c = if (t + i) % 4 == 0 { 6.0 } else { 1.0 } + wobble;
                    }
                }
                center
            })
            .collect();
        singletons(centers)
    }

    /// Centres whose nonzero ranges start, end and overlap anywhere: zero
    /// leads of every length (all-zero centres among them), centres
    /// nonzero only on a window's head, and pairs whose ranges are
    /// disjoint.
    fn prefixed(n: usize) -> Vec<Cluster> {
        let centers = (0..n)
            .map(|i| {
                let lead = (i * 7) % (DIM + 1);
                let end = if i % 3 == 0 { (lead + 1 + i % 5).min(DIM) } else { DIM };
                let mut center = vec![0.0; DIM];
                for (b, c) in center.iter_mut().enumerate().take(end).skip(lead) {
                    *c = 0.5 + ((i * 7919 + b * 104_729) % 1000) as f64 / 250.0;
                }
                center
            })
            .collect();
        singletons(centers)
    }

    /// Drives the greedy merge loop to its end, re-centring each
    /// destination as the size-weighted mean of the two centres, and hands
    /// the table to `check` before every pick; returns the number of
    /// merges.
    fn merge_all(table: &mut MergeTable, mut check: impl FnMut(&mut MergeTable, usize)) -> usize {
        let mut merges = 0;
        loop {
            check(table, merges);
            let Some((a, b)) = table.pick() else { return merges };
            let (dst, src) = if table.size(a) >= table.size(b) { (a, b) } else { (b, a) };
            let center = merged_center(table, dst, src);
            table.absorb(dst, src, &center, table.size(dst) + table.size(src));
            merges += 1;
        }
    }

    fn merged_center(table: &MergeTable, dst: usize, src: usize) -> Vec<f64> {
        let (into, from) = (table.size(dst) as f64, table.size(src) as f64);
        table
            .center(dst)
            .iter()
            .zip(table.center(src))
            .map(|(x, y)| (x * into + y * from) / (into + from))
            .collect()
    }

    /// The guard on the step's cost is a count, not a timer: m merges over
    /// k clusters score at most k(k−1)/2 + m·k similarities, and a merge
    /// scans again only the destination's row and the rows whose cached
    /// partner it invalidated — never the table.
    #[test]
    fn storm_scores_at_most_one_row_per_merge_and_rescans_only_stale_rows() {
        let clusters = storm(480, 24);
        let k = clusters.len();
        let mut table = MergeTable::new(SimilarityMetric::Cosine, 0.8, clusters.iter());
        let built = table.stats();
        assert_eq!((built.scored, built.rescanned_rows), (k * (k - 1) / 2, 0));

        let mut merges = 0;
        while let Some((a, b)) = table.pick() {
            let (dst, src) = if table.size(a) >= table.size(b) { (a, b) } else { (b, a) };
            let stale = (0..k)
                .filter(|&row| row != dst && row != src)
                .filter(|&row| table.best[row].is_some_and(|(j, _)| j == src || j == dst))
                .count();
            let center = merged_center(&table, dst, src);
            let before = table.stats();
            table.absorb(dst, src, &center, table.size(dst) + table.size(src));
            let after = table.stats();
            assert!(after.scored - before.scored < k - merges, "one row of live centres");
            assert!(
                after.rescanned_rows - before.rescanned_rows <= stale + 1,
                "merge {merges}: {} rows rescanned, {stale} were stale",
                after.rescanned_rows - before.rescanned_rows
            );
            merges += 1;
        }
        assert!(merges >= 400, "the corpus is meant to be a storm, got {merges} merges");
        let stats = table.stats();
        assert!(stats.scored <= k * (k - 1) / 2 + merges * k, "{stats:?} over {merges} merges");
        // On this corpus a merge leaves all but a handful of cached
        // partners standing.
        assert!(stats.rescanned_rows <= 4 * merges, "{stats:?} over {merges} merges");
    }

    /// The lattice storm's passes walk the history each centre has, not
    /// the window it spans: every coordinate the table reads — similarity
    /// suffixes, norms and zero-lead scans — stays under a tenth of what
    /// full-vector scoring reads, `(k(k−1)/2 + m·k)·d`. A count, not a
    /// timer, so it repeats exactly.
    #[test]
    fn lattice_storm_reads_a_tenth_of_the_full_vectors() {
        let clusters = lattice_storm(480);
        let k = clusters.len();
        for metric in [SimilarityMetric::Cosine, SimilarityMetric::InverseL2] {
            let rho = if metric == SimilarityMetric::Cosine { 0.8 } else { 0.2 };
            let mut table = MergeTable::new(metric, rho, clusters.iter());
            let merges = merge_all(&mut table, |_, _| {});
            assert!(merges >= 400, "{metric:?}: meant to be a storm, got {merges} merges");
            let full = (k * (k - 1) / 2 + merges * k) * LATTICE_DIM;
            let stats = table.stats();
            assert!(stats.scored <= k * (k - 1) / 2 + merges * k, "{metric:?}: {stats:?}");
            assert!(
                stats.coords_read * 10 <= full,
                "{metric:?}: read {} coordinates, full vectors would read {full}",
                stats.coords_read
            );
        }
    }

    /// A feature stores the history it has: through the lattice storm's
    /// update, the clusterer's `clusterer.feature_coords` gauge is the sum
    /// of `dim − lead` over its 480 templates, each lead counted here as
    /// the position of the first nonzero — under a tenth of the dense
    /// `480 · d` coordinates.
    #[test]
    fn lattice_storm_stores_only_each_features_suffix() {
        use crate::{OnlineClusterer, TemplateFeature, TemplateSnapshot};
        let clusters = lattice_storm(480);
        let want: usize = clusters
            .iter()
            .map(|c| LATTICE_DIM - c.center.iter().position(|&x| x != 0.0).unwrap_or(LATTICE_DIM))
            .sum();
        let snaps = clusters
            .iter()
            .map(|c| TemplateSnapshot {
                key: c.id.0,
                feature: TemplateFeature::full(c.center.clone()),
                volume: 1.0,
                last_seen: 0,
            })
            .collect();
        let recorder = qb_obs::Recorder::new();
        let mut clusterer = OnlineClusterer::new(crate::ClustererConfig::default());
        clusterer.set_recorder(&recorder);
        let report = clusterer.update(snaps, 0);
        assert_eq!(report.new_templates, 480);
        assert_eq!(recorder.snapshot().gauges["clusterer.feature_coords"], want as f64);
        assert!(want * 10 <= 480 * LATTICE_DIM, "{want} stored coordinates");
    }

    /// Cached norms and zero leads change where a sum starts, not what it
    /// comes to: every cell equals the `qb-linalg` full-vector similarity
    /// bit for bit, in either argument order (the metrics are symmetric
    /// down to the bits, which is why one cell per unordered pair is
    /// enough) — on the storm corpus, on centres with leads of every
    /// length, disjoint nonzero ranges and all-zero centres, and on the
    /// lattice storm after every merge.
    #[test]
    fn cells_equal_linalg_similarities_bit_for_bit() {
        fn expected(metric: SimilarityMetric, a: &[f64], b: &[f64]) -> f64 {
            match metric {
                SimilarityMetric::Cosine => qb_linalg::cosine_similarity(a, b),
                SimilarityMetric::InverseL2 => 1.0 / (1.0 + qb_linalg::l2_distance(a, b)),
            }
        }
        fn assert_live_cells(table: &mut MergeTable, context: &str) {
            let live: Vec<usize> = (0..table.ids.len()).filter(|&r| table.size(r) > 0).collect();
            for (n, &i) in live.iter().enumerate() {
                for &j in &live[n + 1..] {
                    let want = expected(table.metric, table.center(i), table.center(j)).to_bits();
                    let cell = table.sims[table.tri(i, j)];
                    assert_eq!(cell.to_bits(), want, "{context}: cell ({i}, {j})");
                    assert_eq!(table.score(j, i).to_bits(), want, "{context}: ({j}, {i})");
                }
            }
        }
        let prefixed = prefixed(66);
        assert!(prefixed.iter().any(|c| c.center.iter().all(|&x| x == 0.0)));
        for metric in [SimilarityMetric::Cosine, SimilarityMetric::InverseL2] {
            for (name, clusters) in [("storm", storm(60, 5)), ("prefixed", prefixed.clone())] {
                let mut table = MergeTable::new(metric, 0.8, clusters.iter());
                assert_live_cells(&mut table, &format!("{metric:?} {name}"));
            }
            let clusters = lattice_storm(96);
            let mut table = MergeTable::new(metric, 0.8, clusters.iter());
            merge_all(&mut table, |table, merges| {
                assert_live_cells(table, &format!("{metric:?} lattice, after {merges} merges"));
            });
        }
    }

    #[test]
    fn fewer_than_two_clusters_have_nothing_to_pick() {
        let clusters = storm(1, 1);
        assert_eq!(
            MergeTable::new(SimilarityMetric::Cosine, 0.8, clusters[..0].iter()).pick(),
            None
        );
        assert_eq!(MergeTable::new(SimilarityMetric::Cosine, 0.8, clusters.iter()).pick(), None);
    }
}
