// Span recording and the decorators that produce the spans.
//
// Every span is timed from outside the program: the benchmark wraps the
// program's public interfaces (net::Transport, net::RequestHandler,
// net::BatchRequestHandler, store::Vfs / store::File) and its own calls
// into the client pipeline. Spans live in per-thread buffers in memory
// and are aggregated (and written out) when the run ends. A layer's self
// time is its span's duration minus the durations of its direct child
// spans.
//
// Work counters (calls, bytes, syncs, batches) are kept on every run,
// traced or not, because the correctness checks read them; only the clock
// reads and span buffers are conditional on tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/batch.hpp"
#include "net/transport.hpp"
#include "store/file.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span {
    const char* name = "";  ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index in the same thread's buffer
    /// Shared by a root span and all its descendants: one operation.
    std::uint64_t request = 0;
};

/// Per-name aggregate over the recorded spans.
struct SpanTotals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

class Tracer {
public:
    static Tracer& instance();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /// Opens a span on the calling thread; returns its index (or -1 when
    /// tracing is off). Spans opened while another is open on the same
    /// thread become its children; a span with no parent starts a new
    /// request id.
    std::int64_t begin(const char* name);
    void end(std::int64_t index);
    /// Records a finished interval as a child of the innermost open span.
    void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

    /// Moves every span recorded on this thread after `first` whose parent
    /// is `from` under `to` (used when a span is known only in hindsight).
    void reparent_since(std::int64_t first, std::int64_t from,
                        std::int64_t to);
    /// Number of spans recorded on the calling thread so far.
    std::int64_t thread_size();

    std::map<std::string, SpanTotals> totals() const;
    /// Per-span durations of `name` (ms), with the largest direct child of
    /// name `child` subtracted — cluster.scatter_ms.
    std::vector<double> beyond_largest_child(const char* name,
                                             const char* child) const;
    /// Writes every span as TSV: thread, name, start_ns, end_ns, parent,
    /// request.
    void write(const std::string& path) const;

private:
    struct Buffer {
        std::vector<Span> spans;
        std::vector<std::int64_t> open;
    };
    Buffer& buffer();
    Span make_span(Buffer& buf, const char* name, std::int64_t start_ns,
                   std::int64_t end_ns);

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_request_{1};
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<Buffer>> buffers_;
};

class ScopedSpan {
public:
    explicit ScopedSpan(const char* name)
        : index_(Tracer::instance().begin(name)) {}
    ~ScopedSpan() { Tracer::instance().end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    std::int64_t index_;
};

/// Client side: counts wire bytes; spans "net.call".
class CountingTransport final : public mie::net::Transport {
public:
    explicit CountingTransport(mie::net::Transport& inner) : inner_(inner) {}

    mie::Bytes call(mie::BytesView request) override;
    void reconnect() override { inner_.reconnect(); }

    std::uint64_t bytes_up() const { return bytes_up_; }
    std::uint64_t bytes_down() const { return bytes_down_; }
    void reset() { bytes_up_ = bytes_down_ = 0; }

private:
    mie::net::Transport& inner_;
    std::uint64_t bytes_up_ = 0;
    std::uint64_t bytes_down_ = 0;
};

/// Server side, read path: spans "mie.search" / "mie.read".
class TracedReadHandler final : public mie::net::RequestHandler {
public:
    explicit TracedReadHandler(mie::net::RequestHandler& inner)
        : inner_(inner) {}
    mie::Bytes handle(mie::BytesView request) override;

    /// Sum of client-read handler durations (ns); traced runs only.
    std::atomic<std::int64_t> busy_ns{0};

private:
    mie::net::RequestHandler& inner_;
};

/// Server side, write path: spans "mie.handle_batch" and, when the batch
/// wrote a checkpoint, "store.checkpoint" from the checkpoint's first
/// file-system call to the end of the batch.
class TracedBatchHandler final : public mie::net::BatchRequestHandler {
public:
    explicit TracedBatchHandler(mie::net::BatchRequestHandler& inner)
        : inner_(inner) {}
    std::vector<Result> handle_batch(
        const std::vector<mie::Bytes>& requests) override;

    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> requests{0};
    /// Sum over batches of duration x requests in the batch (ns): the
    /// time requests spent inside the handler. Traced runs only.
    std::atomic<std::int64_t> weighted_ns{0};

private:
    mie::net::BatchRequestHandler& inner_;
};

/// Wraps a Vfs: counts WAL syncs and bytes; spans "store.append" and
/// "store.sync" for every file.
class CountingVfs final : public mie::store::Vfs {
public:
    explicit CountingVfs(mie::store::Vfs& base) : base_(base) {}

    std::unique_ptr<mie::store::File> open_append(
        const std::filesystem::path& path) override;
    std::unique_ptr<mie::store::File> create_truncate(
        const std::filesystem::path& path) override;
    mie::Bytes read_file(const std::filesystem::path& path) const override {
        return base_.read_file(path);
    }
    bool exists(const std::filesystem::path& path) const override {
        return base_.exists(path);
    }
    std::uint64_t file_size(const std::filesystem::path& path) const override {
        return base_.file_size(path);
    }
    std::vector<std::filesystem::path> list_dir(
        const std::filesystem::path& dir) const override {
        return base_.list_dir(dir);
    }
    void remove_file(const std::filesystem::path& path) override {
        base_.remove_file(path);
    }
    void truncate_file(const std::filesystem::path& path,
                       std::uint64_t new_size) override {
        base_.truncate_file(path, new_size);
    }
    void rename(const std::filesystem::path& from,
                const std::filesystem::path& to) override {
        base_.rename(from, to);
    }
    void create_directories(const std::filesystem::path& dir) override;
    void sync_dir(const std::filesystem::path& dir) override;

    /// fdatasync calls and appended bytes of WAL segments (files under a
    /// "wal" directory).
    std::atomic<std::uint64_t> wal_syncs{0};
    std::atomic<std::uint64_t> wal_bytes{0};

    /// Start of a checkpoint observed on this thread (0 = none): the
    /// DurableServer's checkpoint begins by creating dir/snapshots.
    static thread_local std::int64_t checkpoint_start_ns;
    static thread_local std::int64_t checkpoint_first_span;

private:
    mie::store::Vfs& base_;
};

}  // namespace perfbench
