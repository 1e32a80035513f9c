// Process-wide data parallelism for the pipeline's hot stages.
//
// Graph construction, pruning, feature extraction, and classification are
// all data-parallel over index ranges. Rather than every stage spinning up
// (and tearing down) its own ThreadPool, they share one process-wide pool
// whose size is set once — by the application, a benchmark sweep, or the
// SEG_THREADS environment variable — and every stage inherits it.
//
// Determinism contract: all functions here partition work statically by
// index, so any stage built on them produces identical results for every
// pool size (including 1). Stages that need per-worker accumulators use
// parallel_chunks and reduce the per-chunk results in chunk order.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace seg::util {

/// Number of workers the shared pool uses (never 0). Defaults to the
/// SEG_THREADS environment variable when set, else hardware_concurrency.
std::size_t parallelism();

/// Resizes the shared pool; 0 restores the default. Takes effect on the
/// next parallel_for / parallel_chunks call. Not safe to call concurrently
/// with in-flight parallel work (it is a configuration knob, not a
/// synchronization point).
void set_parallelism(std::size_t num_threads);

/// The shared pool itself, for callers that need submit(). Lazily built.
ThreadPool& shared_pool();

/// fn(i) for i in [0, count) on the shared pool; runs inline (no pool
/// touch) when the pool has one worker or count < 2. Exceptions from tasks
/// are rethrown (first one wins).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

/// Splits [0, count) into exactly `num_chunks` (or `count`, when smaller)
/// contiguous, non-empty ranges whose sizes differ by at most one
/// (chunk_bounds), and runs fn(chunk_index, begin, end) for each. The
/// partition depends only on (count, num_chunks), never on the pool size,
/// so per-chunk accumulators reduced in chunk order are deterministic.
/// num_chunks == 0 means one chunk per worker.
void parallel_chunks(std::size_t count, std::size_t num_chunks,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// The chunk count parallel_chunks(count, 0, ...) would use: one chunk per
/// shared-pool worker, capped by count (min 1). Callers size per-chunk
/// accumulator arrays with this.
std::size_t default_chunk_count(std::size_t count);

}  // namespace seg::util
