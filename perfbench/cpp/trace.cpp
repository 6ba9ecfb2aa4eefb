#include "trace.hpp"

#include <algorithm>
#include <fstream>

#include "mie/wire.hpp"
#include "net/envelope.hpp"

namespace perfbench {

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer& Tracer::buffer() {
    thread_local std::shared_ptr<Buffer> local;
    if (!local) {
        local = std::make_shared<Buffer>();
        const std::scoped_lock lock(mutex_);
        buffers_.push_back(local);
    }
    return *local;
}

Span Tracer::make_span(Buffer& buf, const char* name, std::int64_t start_ns,
                       std::int64_t end_ns) {
    const std::int64_t parent = buf.open.empty() ? -1 : buf.open.back();
    const std::uint64_t request =
        parent < 0 ? next_request_.fetch_add(1, std::memory_order_relaxed)
                   : buf.spans[static_cast<std::size_t>(parent)].request;
    return Span{name, start_ns, end_ns, parent, request};
}

std::int64_t Tracer::begin(const char* name) {
    if (!enabled()) return -1;
    Buffer& buf = buffer();
    buf.spans.push_back(make_span(buf, name, now_ns(), 0));
    const auto index = static_cast<std::int64_t>(buf.spans.size()) - 1;
    buf.open.push_back(index);
    return index;
}

void Tracer::end(std::int64_t index) {
    if (index < 0) return;
    Buffer& buf = buffer();
    buf.spans[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!buf.open.empty() && buf.open.back() == index) buf.open.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
    if (!enabled()) return;
    Buffer& buf = buffer();
    buf.spans.push_back(make_span(buf, name, start_ns, end_ns));
}

void Tracer::reparent_since(std::int64_t first, std::int64_t from,
                            std::int64_t to) {
    Buffer& buf = buffer();
    for (auto i = static_cast<std::size_t>(std::max<std::int64_t>(first, 0));
         i < buf.spans.size(); ++i) {
        if (buf.spans[i].parent == from &&
            static_cast<std::int64_t>(i) != to) {
            buf.spans[i].parent = to;
        }
    }
}

std::int64_t Tracer::thread_size() {
    return static_cast<std::int64_t>(buffer().spans.size());
}

std::map<std::string, SpanTotals> Tracer::totals() const {
    std::map<std::string, SpanTotals> out;
    const std::scoped_lock lock(mutex_);
    for (const auto& buf : buffers_) {
        std::vector<double> child_ms(buf->spans.size(), 0.0);
        for (const Span& span : buf->spans) {
            if (span.parent >= 0) {
                child_ms[static_cast<std::size_t>(span.parent)] +=
                    static_cast<double>(span.end_ns - span.start_ns) / 1e6;
            }
        }
        for (std::size_t i = 0; i < buf->spans.size(); ++i) {
            const Span& span = buf->spans[i];
            const double ms =
                static_cast<double>(span.end_ns - span.start_ns) / 1e6;
            SpanTotals& t = out[span.name];
            ++t.count;
            t.total_ms += ms;
            t.self_ms += ms - child_ms[i];
        }
    }
    return out;
}

std::vector<double> Tracer::beyond_largest_child(const char* name,
                                                 const char* child) const {
    std::vector<double> out;
    const std::scoped_lock lock(mutex_);
    for (const auto& buf : buffers_) {
        std::map<std::int64_t, double> largest;
        for (const Span& span : buf->spans) {
            if (span.parent >= 0 && std::string_view(span.name) == child) {
                double& slot = largest[span.parent];
                slot = std::max(
                    slot, static_cast<double>(span.end_ns - span.start_ns) /
                              1e6);
            }
        }
        for (std::size_t i = 0; i < buf->spans.size(); ++i) {
            const Span& span = buf->spans[i];
            if (std::string_view(span.name) != name) continue;
            const double ms =
                static_cast<double>(span.end_ns - span.start_ns) / 1e6;
            const auto it = largest.find(static_cast<std::int64_t>(i));
            out.push_back(ms - (it == largest.end() ? 0.0 : it->second));
        }
    }
    return out;
}

void Tracer::write(const std::string& path) const {
    std::ofstream file(path);
    const std::scoped_lock lock(mutex_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
        for (const Span& span : buffers_[t]->spans) {
            file << t << '\t' << span.name << '\t' << span.start_ns << '\t'
                 << span.end_ns << '\t' << span.parent << '\t'
                 << span.request << '\n';
        }
    }
}

// -- Decorators --------------------------------------------------------------

mie::Bytes CountingTransport::call(mie::BytesView request) {
    const ScopedSpan span("net.call");
    mie::Bytes response = inner_.call(request);
    bytes_up_ += request.size();
    bytes_down_ += response.size();
    return response;
}

mie::Bytes TracedReadHandler::handle(mie::BytesView request) {
    const mie::BytesView inner = mie::net::envelope_inner(request);
    const std::uint8_t op = inner.empty() ? 0 : inner[0];
    // Replication pulls from followers arrive on the same read path; they
    // are server-internal traffic, not client reads.
    if (op >= static_cast<std::uint8_t>(mie::ClusterOp::kReplPull)) {
        const ScopedSpan span("cluster.serve_pull");
        return inner_.handle(request);
    }
    const bool search = op == static_cast<std::uint8_t>(mie::MieOp::kSearch);
    if (!Tracer::instance().enabled()) return inner_.handle(request);
    const std::int64_t start = now_ns();
    mie::Bytes response;
    {
        const ScopedSpan span(search ? "mie.search" : "mie.read");
        response = inner_.handle(request);
    }
    busy_ns.fetch_add(now_ns() - start, std::memory_order_relaxed);
    return response;
}

thread_local std::int64_t CountingVfs::checkpoint_start_ns = 0;
thread_local std::int64_t CountingVfs::checkpoint_first_span = 0;

std::vector<mie::net::BatchRequestHandler::Result>
TracedBatchHandler::handle_batch(const std::vector<mie::Bytes>& batch) {
    batches.fetch_add(1, std::memory_order_relaxed);
    requests.fetch_add(batch.size(), std::memory_order_relaxed);
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return inner_.handle_batch(batch);

    CountingVfs::checkpoint_start_ns = 0;
    const std::int64_t start = now_ns();
    const std::int64_t span = tracer.begin("mie.handle_batch");
    auto results = inner_.handle_batch(batch);
    const std::int64_t end = now_ns();
    if (CountingVfs::checkpoint_start_ns != 0) {
        // The checkpoint ends the batch (DurableServer checkpoints after
        // the batch is durable); its file-system spans move under it.
        const std::int64_t first = CountingVfs::checkpoint_first_span;
        tracer.record("store.checkpoint", CountingVfs::checkpoint_start_ns,
                      end);
        tracer.reparent_since(first, span, tracer.thread_size() - 1);
        CountingVfs::checkpoint_start_ns = 0;
    }
    tracer.end(span);
    weighted_ns.fetch_add(
        (end - start) * static_cast<std::int64_t>(batch.size()),
        std::memory_order_relaxed);
    return results;
}

namespace {

bool under_wal(const std::filesystem::path& path) {
    return path.parent_path().filename() == "wal";
}

class CountingFile final : public mie::store::File {
public:
    CountingFile(std::unique_ptr<mie::store::File> inner, CountingVfs& vfs,
                 bool wal)
        : inner_(std::move(inner)), vfs_(vfs), wal_(wal) {}

    void append(mie::BytesView data) override {
        const ScopedSpan span("store.append");
        inner_->append(data);
        note(data.size());
    }
    void append_parts(mie::BytesView header, mie::BytesView payload) override {
        const ScopedSpan span("store.append");
        inner_->append_parts(header, payload);
        note(header.size() + payload.size());
    }
    void sync() override {
        const ScopedSpan span("store.sync");
        inner_->sync();
        if (wal_) vfs_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
    }
    void flush_async() override {
        const ScopedSpan span("store.sync");
        inner_->flush_async();
    }
    std::uint64_t size() const override { return inner_->size(); }

private:
    void note(std::size_t bytes) {
        if (wal_) vfs_.wal_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }

    std::unique_ptr<mie::store::File> inner_;
    CountingVfs& vfs_;
    bool wal_;
};

}  // namespace

std::unique_ptr<mie::store::File> CountingVfs::open_append(
    const std::filesystem::path& path) {
    return std::make_unique<CountingFile>(base_.open_append(path), *this,
                                          under_wal(path));
}

std::unique_ptr<mie::store::File> CountingVfs::create_truncate(
    const std::filesystem::path& path) {
    return std::make_unique<CountingFile>(base_.create_truncate(path), *this,
                                          under_wal(path));
}

void CountingVfs::create_directories(const std::filesystem::path& dir) {
    if (dir.filename() == "snapshots" && Tracer::instance().enabled()) {
        checkpoint_start_ns = now_ns();
        checkpoint_first_span = Tracer::instance().thread_size();
    }
    base_.create_directories(dir);
}

void CountingVfs::sync_dir(const std::filesystem::path& dir) {
    const ScopedSpan span("store.sync");
    base_.sync_dir(dir);
}

}  // namespace perfbench
