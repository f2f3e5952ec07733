// Crash-safe file writes: publish-by-rename.
//
// A file written in place can be left truncated by a crash, an OOM kill or
// a Ctrl-C between open() and the final flush. Every durable artifact in
// this repository (CSV tables, sweep checkpoints, .cctrace traces) therefore
// goes through the same protocol: write the full content to a temp file
// beside it, fsync the data, rename(2) over the final name, and fsync the
// directory so the rename itself survives a power cut. Readers either see
// the old complete file or the new complete file — never a prefix. The
// temp name is unique per write, so concurrent writers of one path never
// share (and truncate) each other's staging file: the last rename wins
// whole.
#pragma once

#include <string>

namespace afs {

/// A staging name beside `final_path`, unique per (process, thread,
/// call): `<final_path>.tmp.<pid>.<tid>.<counter>`.
std::string unique_tmp_path(const std::string& final_path);

/// Writes `content` to `path` via the tmp+fsync+rename protocol above,
/// staging at unique_tmp_path(path).
/// Parent directories are created as needed. Throws std::runtime_error
/// (with errno context) on any I/O failure; the temp file is unlinked on
/// the failure path so retries start clean.
void write_file_atomic(const std::string& path, const std::string& content);

/// Publishes an already-written temp file: fsyncs `tmp_path`, renames it
/// to `final_path`, fsyncs the parent directory. Used by streaming writers
/// (e.g. the .cctrace sink) that cannot buffer their whole output.
/// Throws std::runtime_error on failure, leaving `tmp_path` in place.
void commit_file_atomic(const std::string& tmp_path,
                        const std::string& final_path);

}  // namespace afs
