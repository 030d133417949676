/**
 * @file
 * The `critics_cli serve-worker` entry point: one long-lived worker
 * slot of a serve daemon.  The daemon spawns it once and writes one
 * batch line (serve::WorkerBatch) to its stdin per batch; the worker
 * rebuilds the batch's grid from the line's apps/variants/insts, keeps
 * only the jobs whose hashes the line lists, runs them through an
 * ordinary Runner that reads and writes no result store, and streams
 * one JSONL JobEvent per finished job on stdout — a simulated job's
 * event carries its result, which the daemon writes to its store —
 * ending the batch with a "shard-done" line.  It then waits for the
 * next line, and exits 0 when stdin closes, which is how the daemon
 * stops it and how it notices that the daemon died.
 *
 * Between batches the worker keeps the last batch's AppExperiment (the
 * synthesized program, its trace and its offline profile), keyed by
 * JobSpec::appKey(), and pins it into the next batch's Runner whenever
 * that batch runs a job of the same app at the same insts; a batch of
 * another key drops it first.  The experiment memoizes the transformed
 * traces run on it, so the worker drops those after every batch: an
 * idle worker holds the offline profile only, never more than a fresh
 * worker would build, and reuse needs no bound.
 *
 * A worker never answers from cache: the daemon sends it only jobs
 * that are not in the store (all of them on a submit-time `refresh`),
 * and a worker respawned after a crash gets a line naming only the
 * jobs whose events had not arrived.
 */

#ifndef CRITICS_SERVE_WORKER_HH
#define CRITICS_SERVE_WORKER_HH

namespace critics::serve
{

/**
 * `argv` holds the arguments after the `serve-worker` word:
 * [--attempts <n>] (the per-job attempt budget).  Returns the process
 * exit code: 0 when stdin closed (failed jobs are event records, not
 * worker failures), 2 on bad arguments, a malformed batch line or one
 * longer than kMaxLineBytes.
 */
int serveWorkerMain(int argc, char **argv);

} // namespace critics::serve

#endif // CRITICS_SERVE_WORKER_HH
