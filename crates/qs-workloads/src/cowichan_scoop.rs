//! SCOOP/Qs implementations of the Cowichan kernels.
//!
//! The idiom follows §3.4/§4.2 of the paper: the data lives with worker
//! handlers (one per thread), the client issues asynchronous calls to start
//! the computation, and results are *pulled* back synchronously with queries
//! — "the idiomatic way to transfer data in SCOOP/Qs is to have the client
//! pull data from the handler".  The pull loops are exactly the query-heavy
//! tight loops the sync-coalescing optimisations target, so the measured
//! communication time reproduces the None ≫ {Dynamic, Static} gap of
//! Table 1 / Fig. 16.
//!
//! Under a configuration with `assume_static_sync` the pull loops run in the
//! shape the static pass produces (one hoisted [`qs_runtime::Separate::sync`]
//! followed by unsynced reads); under every other configuration they run the
//! naive shape (a full query per element).

use std::time::{Duration, Instant};

use qs_runtime::{Handler, OptimizationLevel, Runtime, Separate};

use crate::seq;
use crate::types::{
    assert_close, rand_cell, CowichanParams, IntMatrix, Matrix, ParallelTask, Point, TimedRun,
};

/// Splits `0..total` into `parts` contiguous ranges.
pub fn split_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let chunk = total.div_ceil(parts).max(1);
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < total {
        let end = (start + chunk).min(total);
        ranges.push(start..end);
        start = end;
    }
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

/// State owned by one worker handler: the rows it is responsible for.
#[derive(Default)]
struct Worker {
    /// Start row of this worker's range.
    first_row: usize,
    /// Integer rows (randmat/thresh/winnow stages).
    int_rows: Vec<Vec<u32>>,
    /// Boolean mask rows.
    mask_rows: Vec<Vec<bool>>,
    /// Float rows (outer matrix).
    float_rows: Vec<Vec<f64>>,
    /// Sorted (value, row, col) candidates (winnow).
    candidates: Vec<(u32, usize, usize)>,
    /// Histogram of values (thresh).
    histogram: Vec<usize>,
    /// Partial result vector (product / outer vector).
    partial: Vec<f64>,
}

/// Pulls `len` values out of a worker with the access shape dictated by the
/// optimisation level: naive (query per element) or statically coalesced
/// (one sync, then unsynced reads).
fn pull_values<R: Send + Copy + 'static>(
    guard: &mut Separate<'_, Worker>,
    statically_coalesced: bool,
    len: usize,
    read: impl Fn(&mut Worker, usize) -> R + Send + Copy + 'static,
    mut sink: impl FnMut(usize, R),
) {
    if statically_coalesced {
        guard.sync();
        for i in 0..len {
            let value = guard.query_unsynced(|w| read(w, i));
            sink(i, value);
        }
    } else {
        for i in 0..len {
            let value = guard.query(move |w| read(w, i));
            sink(i, value);
        }
    }
}

struct Cluster {
    runtime: Runtime,
    workers: Vec<Handler<Worker>>,
    ranges: Vec<std::ops::Range<usize>>,
    statically_coalesced: bool,
}

impl Cluster {
    fn new(level: OptimizationLevel, params: &CowichanParams, total_rows: usize) -> Self {
        let config = level.config();
        let runtime = Runtime::new(config);
        let ranges = split_ranges(total_rows, params.threads);
        let workers = ranges
            .iter()
            .map(|range| {
                runtime.spawn_handler(Worker {
                    first_row: range.start,
                    ..Worker::default()
                })
            })
            .collect();
        Cluster {
            runtime,
            workers,
            ranges,
            statically_coalesced: config.assume_static_sync,
        }
    }

    /// Issues an asynchronous call on every worker (fire and forget).
    fn broadcast(&self, f: impl Fn(&mut Worker) + Send + Clone + 'static) {
        for worker in &self.workers {
            let f = f.clone();
            worker.separate(|s| s.call(move |w| f(w)));
        }
    }

    /// Waits until every worker has drained its queue (end of compute phase).
    fn join(&self) {
        for worker in &self.workers {
            worker.separate(|s| s.query(|_| ()));
        }
    }

    fn stop(self) {
        for worker in &self.workers {
            worker.stop();
        }
        drop(self.runtime);
    }
}

/// Generates the worker-local slice of the random matrix (compute phase of
/// randmat, and the input-generation step of the other kernels: the matrix is
/// regenerated locally instead of being shipped, as the seed is shared).
fn generate_rows(cluster: &Cluster, params: &CowichanParams) {
    let seed = params.seed;
    let nr = params.nr;
    for (worker, range) in cluster.workers.iter().zip(&cluster.ranges) {
        let range = range.clone();
        worker.separate(|s| {
            s.call(move |w: &mut Worker| {
                w.int_rows = range
                    .clone()
                    .map(|row| (0..nr).map(|col| rand_cell(seed, row, col)).collect())
                    .collect();
            });
        });
    }
}

/// randmat: workers generate rows; the client pulls every element back.
fn randmat(cluster: &Cluster, params: &CowichanParams) -> (IntMatrix, TimedRun) {
    let nr = params.nr;
    let compute_start = Instant::now();
    generate_rows(cluster, params);
    cluster.join();
    let compute = compute_start.elapsed();

    let communicate_start = Instant::now();
    let mut matrix = Matrix::<u32>::zeroed(nr, nr);
    for (worker, range) in cluster.workers.iter().zip(&cluster.ranges) {
        let rows = range.len();
        let base_row = range.start;
        worker.separate(|s| {
            pull_values(
                s,
                cluster.statically_coalesced,
                rows * nr,
                move |w, i| w.int_rows[i / nr][i % nr],
                |i, value| matrix.set(base_row + i / nr, i % nr, value),
            );
        });
    }
    let communicate = communicate_start.elapsed();
    (
        matrix,
        TimedRun {
            compute,
            communicate,
        },
    )
}

/// thresh: per-worker histograms, a global threshold, per-worker masks, and a
/// pull of the mask back to the client.
fn thresh(cluster: &Cluster, params: &CowichanParams) -> (Matrix<bool>, TimedRun) {
    let nr = params.nr;
    let compute_start = Instant::now();
    generate_rows(cluster, params);
    cluster.broadcast(|w| {
        let mut histogram = vec![0usize; crate::types::RAND_MAX as usize + 1];
        for row in &w.int_rows {
            for &value in row {
                histogram[value as usize] += 1;
            }
        }
        w.histogram = histogram;
    });
    cluster.join();
    let mut compute = compute_start.elapsed();

    // Small communication: merge the histograms on the client.
    let communicate_start = Instant::now();
    let mut histogram = vec![0usize; crate::types::RAND_MAX as usize + 1];
    for worker in &cluster.workers {
        let partial = worker.separate(|s| s.query(|w| w.histogram.clone()));
        for (total, part) in histogram.iter_mut().zip(partial) {
            *total += part;
        }
    }
    let mut communicate = communicate_start.elapsed();

    // Threshold selection happens on the client (cheap, sequential).
    let target = (nr * nr * params.p_percent as usize).div_ceil(100);
    let mut kept = 0usize;
    let mut threshold = 0u32;
    for value in (0..histogram.len()).rev() {
        kept += histogram[value];
        if kept >= target {
            threshold = value as u32;
            break;
        }
    }

    // Second compute phase: build the mask rows.
    let compute_start = Instant::now();
    cluster.broadcast(move |w| {
        w.mask_rows = w
            .int_rows
            .iter()
            .map(|row| row.iter().map(|&v| v >= threshold).collect())
            .collect();
    });
    cluster.join();
    compute += compute_start.elapsed();

    // Pull the mask back, element by element.
    let communicate_start = Instant::now();
    let mut mask = Matrix::<bool>::zeroed(nr, nr);
    for (worker, range) in cluster.workers.iter().zip(&cluster.ranges) {
        let rows = range.len();
        let base_row = range.start;
        worker.separate(|s| {
            pull_values(
                s,
                cluster.statically_coalesced,
                rows * nr,
                move |w, i| w.mask_rows[i / nr][i % nr],
                |i, value| mask.set(base_row + i / nr, i % nr, value),
            );
        });
    }
    communicate += communicate_start.elapsed();
    (
        mask,
        TimedRun {
            compute,
            communicate,
        },
    )
}

/// winnow: workers sort their local masked candidates; the client pulls and
/// merges them and selects `nw` evenly spaced points.
fn winnow(cluster: &Cluster, params: &CowichanParams) -> (Vec<Point>, TimedRun) {
    let (_, thresh_time) = thresh(cluster, params);
    let compute_start = Instant::now();
    cluster.broadcast(|w| {
        let mut candidates = Vec::new();
        for (local_row, (values, mask)) in w.int_rows.iter().zip(&w.mask_rows).enumerate() {
            let row = w.first_row + local_row;
            for (col, (&value, &keep)) in values.iter().zip(mask).enumerate() {
                if keep {
                    candidates.push((value, row, col));
                }
            }
        }
        candidates.sort_unstable();
        w.candidates = candidates;
    });
    cluster.join();
    let compute = thresh_time.compute + compute_start.elapsed();

    let communicate_start = Instant::now();
    let mut all: Vec<(u32, usize, usize)> = Vec::new();
    for worker in &cluster.workers {
        let count = worker.separate(|s| s.query(|w| w.candidates.len()));
        worker.separate(|s| {
            pull_values(
                s,
                cluster.statically_coalesced,
                count,
                |w, i| w.candidates[i],
                |_, value| all.push(value),
            );
        });
    }
    all.sort_unstable();
    let points = seq::select_evenly(&all, params.nw);
    let communicate = thresh_time.communicate + communicate_start.elapsed();
    (
        points,
        TimedRun {
            compute,
            communicate,
        },
    )
}

/// outer: the client pushes the point list to every worker (communication),
/// workers compute their rows of the distance matrix plus the origin-distance
/// vector (compute), the client pulls the rows back (communication).
fn outer_from_points(cluster: &Cluster, points: &[Point]) -> (Matrix<f64>, Vec<f64>, TimedRun) {
    let n = points.len();
    let ranges = split_ranges(n, cluster.workers.len());
    let mut communicate = Duration::ZERO;

    // Pushing the point list to the workers rides along with the compute
    // calls below: in SCOOP the packaged call carries its arguments, so the
    // distribution cost is part of issuing the (asynchronous) calls and the
    // dominant communication cost is pulling the results back.
    let compute_start = Instant::now();
    for (worker, range) in cluster.workers.iter().zip(&ranges) {
        let points = points.to_vec();
        let range = range.clone();
        worker.separate(|s| {
            s.call(move |w| {
                w.first_row = range.start;
                let n = points.len();
                w.float_rows = range
                    .clone()
                    .map(|i| {
                        let mut row = vec![0.0f64; n];
                        let mut row_max = 0.0f64;
                        for (j, value) in row.iter_mut().enumerate() {
                            if i != j {
                                let d = seq::distance(points[i], points[j]);
                                *value = d;
                                row_max = row_max.max(d);
                            }
                        }
                        row[i] = row_max * n as f64;
                        row
                    })
                    .collect();
                w.partial = range
                    .clone()
                    .map(|i| seq::distance(points[i], (0, 0)))
                    .collect();
            });
        });
    }
    cluster.join();
    let compute = compute_start.elapsed();

    let communicate_start = Instant::now();
    let mut matrix = Matrix::<f64>::zeroed(n, n);
    let mut vector = vec![0.0f64; n];
    for (worker, range) in cluster.workers.iter().zip(&ranges) {
        let rows = range.len();
        let base_row = range.start;
        worker.separate(|s| {
            pull_values(
                s,
                cluster.statically_coalesced,
                rows * n,
                move |w, i| w.float_rows[i / n][i % n],
                |i, value| matrix.set(base_row + i / n, i % n, value),
            );
            pull_values(
                s,
                cluster.statically_coalesced,
                rows,
                |w, i| w.partial[i],
                |i, value| vector[base_row + i] = value,
            );
        });
    }
    communicate += communicate_start.elapsed();
    (
        matrix,
        vector,
        TimedRun {
            compute,
            communicate,
        },
    )
}

/// product: workers hold their rows of the matrix plus a copy of the vector,
/// compute the partial products, and the client pulls the result vector.
fn product_from(cluster: &Cluster, matrix: &Matrix<f64>, vector: &[f64]) -> (Vec<f64>, TimedRun) {
    let n = matrix.rows;
    let ranges = split_ranges(n, cluster.workers.len());

    let communicate_start = Instant::now();
    for (worker, range) in cluster.workers.iter().zip(&ranges) {
        let rows: Vec<Vec<f64>> = range.clone().map(|r| matrix.row(r).to_vec()).collect();
        let vector = vector.to_vec();
        let range = range.clone();
        worker.separate(|s| {
            s.call(move |w| {
                w.first_row = range.start;
                w.float_rows = rows;
                w.partial = vector;
            });
        });
    }
    let mut communicate = communicate_start.elapsed();

    let compute_start = Instant::now();
    cluster.broadcast(|w| {
        let vector = std::mem::take(&mut w.partial);
        w.partial = w
            .float_rows
            .iter()
            .map(|row| row.iter().zip(&vector).map(|(m, v)| m * v).sum())
            .collect();
    });
    cluster.join();
    let compute = compute_start.elapsed();

    let communicate_start = Instant::now();
    let mut result = vec![0.0f64; n];
    for (worker, range) in cluster.workers.iter().zip(&ranges) {
        let rows = range.len();
        let base_row = range.start;
        worker.separate(|s| {
            pull_values(
                s,
                cluster.statically_coalesced,
                rows,
                |w, i| w.partial[i],
                |i, value| result[base_row + i] = value,
            );
        });
    }
    communicate += communicate_start.elapsed();
    (
        result,
        TimedRun {
            compute,
            communicate,
        },
    )
}

/// Runs one Cowichan task under the given optimisation level and verifies the
/// result against the sequential reference.
pub fn run(task: ParallelTask, level: OptimizationLevel, params: &CowichanParams) -> TimedRun {
    let cluster = Cluster::new(level, params, params.nr);
    let timing = match task {
        ParallelTask::Randmat => {
            let (matrix, timing) = randmat(&cluster, params);
            assert_eq!(
                matrix,
                seq::randmat(params),
                "randmat mismatch under {level}"
            );
            timing
        }
        ParallelTask::Thresh => {
            let (mask, timing) = thresh(&cluster, params);
            let reference = seq::thresh(&seq::randmat(params), params.p_percent);
            assert_eq!(mask, reference, "thresh mismatch under {level}");
            timing
        }
        ParallelTask::Winnow => {
            let (points, timing) = winnow(&cluster, params);
            let matrix = seq::randmat(params);
            let mask = seq::thresh(&matrix, params.p_percent);
            assert_eq!(points, seq::winnow(&matrix, &mask, params.nw));
            timing
        }
        ParallelTask::Outer => {
            let points = reference_points(params);
            let (matrix, vector, timing) = outer_from_points(&cluster, &points);
            let (ref_matrix, ref_vector) = seq::outer(&points);
            assert_close("outer matrix", &matrix.data, &ref_matrix.data);
            assert_close("outer vector", &vector, &ref_vector);
            timing
        }
        ParallelTask::Product => {
            let points = reference_points(params);
            let (ref_matrix, ref_vector) = seq::outer(&points);
            let (result, timing) = product_from(&cluster, &ref_matrix, &ref_vector);
            assert_close("product", &result, &seq::product(&ref_matrix, &ref_vector));
            timing
        }
        ParallelTask::Chain => {
            let (points, winnow_time) = winnow(&cluster, params);
            let (matrix, vector, outer_time) = outer_from_points(&cluster, &points);
            let (result, product_time) = product_from(&cluster, &matrix, &vector);
            assert_close("chain", &result, &seq::chain(params));
            TimedRun {
                compute: winnow_time.compute + outer_time.compute + product_time.compute,
                communicate: winnow_time.communicate
                    + outer_time.communicate
                    + product_time.communicate,
            }
        }
    };
    cluster.stop();
    timing
}

/// The deterministic input points used by the standalone outer/product tasks.
pub fn reference_points(params: &CowichanParams) -> Vec<Point> {
    let matrix = seq::randmat(params);
    let mask = seq::thresh(&matrix, params.p_percent);
    seq::winnow(&matrix, &mask, params.nw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(split_ranges(0, 4).len(), 1);
        assert_eq!(split_ranges(2, 8).len(), 2);
    }

    #[test]
    fn all_tasks_match_reference_under_all_config() {
        let params = CowichanParams::tiny();
        for task in ParallelTask::ALL {
            // `run` panics on any mismatch against the sequential oracle.
            let timing = run(task, OptimizationLevel::All, &params);
            assert!(timing.total() > Duration::ZERO, "{task}");
        }
    }

    #[test]
    fn randmat_matches_under_every_level() {
        let params = CowichanParams::tiny();
        for level in OptimizationLevel::ALL {
            run(ParallelTask::Randmat, level, &params);
        }
    }

    #[test]
    fn unoptimized_performs_many_more_syncs_than_optimized() {
        let params = CowichanParams::tiny();
        let runtime_probe = |level: OptimizationLevel| {
            let cluster = Cluster::new(level, &params, params.nr);
            let before = cluster.runtime.stats_snapshot();
            let _ = randmat(&cluster, &params);
            let after = cluster.runtime.stats_snapshot();
            let delta = after.since(&before);
            cluster.stop();
            delta
        };
        let unoptimized = runtime_probe(OptimizationLevel::None);
        let dynamic = runtime_probe(OptimizationLevel::Dynamic);
        // The unoptimised runtime pays a handler round-trip per pulled
        // element (handler-executed queries); the dynamic runtime only needs
        // one sync per separate block and elides the rest.
        let unoptimized_round_trips =
            unoptimized.syncs_performed + unoptimized.queries_handler_executed;
        let dynamic_round_trips = dynamic.syncs_performed + dynamic.queries_handler_executed;
        assert!(
            unoptimized_round_trips > 10 * dynamic_round_trips.max(1),
            "expected a large round-trip gap: {unoptimized_round_trips} vs {dynamic_round_trips}"
        );
    }
}
