/**
 * @file
 * The `critics_cli serve-worker` entry point: one forked shard
 * executor of a serve batch.  The server hands each worker the batch
 * vocabulary (apps/variants/insts strings), the subset of job hashes
 * its shard owns, a private per-shard result store and a retry
 * budget; the worker rebuilds the grid, keeps only its owned jobs,
 * runs them through the ordinary Runner and streams one JSONL JobEvent
 * per finished job on stdout, ending with a "shard-done" line.
 *
 * Restart idempotence: everything the worker needs is on disk (the
 * hash file and its shard store), so a respawned worker after a crash
 * re-runs the same command line, answers already-completed jobs from
 * its shard store (emitting their events again — the server dedupes by
 * hash) and simulates only the remainder.  So the worker always reads
 * its shard store: a submit-time `refresh` is the server's business
 * (it sends cached jobs cold and empties each shard store first).
 */

#ifndef CRITICS_SERVE_WORKER_HH
#define CRITICS_SERVE_WORKER_HH

namespace critics::serve
{

/**
 * `argv` holds the arguments after the `serve-worker` word:
 * --batch <name> --apps <list> --variants <list> --insts <n>
 * --store <shard.jsonl> --hashes <file> [--attempts <n>]
 * [--sleep-ms <n>] [--trace-id <id>] [--profile <file>].  Returns the
 * process exit code: 0 when the shard was fully accounted for (failed
 * jobs are event records, not worker failures), 2 on bad arguments.
 */
int serveWorkerMain(int argc, char **argv);

} // namespace critics::serve

#endif // CRITICS_SERVE_WORKER_HH
