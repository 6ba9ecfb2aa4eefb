#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>

#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "crypto/kdf.hpp"
#include "mie/extract.hpp"
#include "mie/object_codec.hpp"
#include "mie/wire.hpp"
#include "net/envelope.hpp"
#include "net/message.hpp"
#include "net/tcp.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace mie;

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) / 1e6;
}

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto last = samples.size() - 1;
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(last) + 0.5);
    return samples[std::min(idx, last)];
}

double mean(const std::vector<double>& samples) {
    if (samples.empty()) return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

std::uint64_t dir_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
}

std::size_t scaled_count(double seconds, double per_second) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(seconds * per_second)));
}

Identity::Identity(std::uint64_t seed)
    : key(RepositoryKey::generate(
          to_bytes("perfbench-key-" + std::to_string(seed)), 64, 64,
          0.7978845608)),
      user_secret(to_bytes("perfbench-user-" + std::to_string(seed))) {}

TrainParams train_params() {
    TrainParams params;
    params.tree_branch = 32;
    params.tree_depth = 2;
    return params;
}

std::unique_ptr<MieClient> make_client(net::Transport& link,
                                       const std::string& repo,
                                       const Identity& identity) {
    auto client = std::make_unique<MieClient>(link, repo, identity.key,
                                              identity.user_secret);
    client->train_params = train_params();
    client->extraction.pyramid.base_stride = 4;
    return client;
}

std::vector<std::string> serve_args(const fs::path& dir,
                                    const std::string& mode,
                                    std::uint64_t checkpoint_bytes) {
    return {"--dir", dir.string(), "--mode", mode, "--checkpoint-bytes",
            std::to_string(checkpoint_bytes)};
}

std::uint16_t ready_port(const ServerProcess& server, std::size_t index) {
    // READY <recovery_ms> <port>...
    return static_cast<std::uint16_t>(std::stoul(server.ready().at(1 + index)));
}

void run_threads(std::size_t n, const std::function<void(std::size_t)>& fn) {
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

void SearchWorkTally::add(const MieServer::SearchWork& work) {
    ++searches;
    postings += work.postings_scored;
    query_descriptors += work.query_descriptors;
    kept += work.descriptors_kept;
}

void SearchWorkTally::merge(const SearchWorkTally& other) {
    searches += other.searches;
    postings += other.postings;
    query_descriptors += other.query_descriptors;
    kept += other.kept;
}

MieServer::SearchWork search_work_of(BytesView response) {
    net::MessageReader reader(response);
    const std::uint32_t count = reader.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        reader.read_u64();
        reader.read_f64();
        reader.read_bytes();
    }
    MieServer::SearchWork work;
    if (reader.remaining() >= 24) {
        work.postings_scored = reader.read_u64();
        work.query_descriptors = reader.read_u64();
        work.descriptors_kept = reader.read_u64();
    }
    return work;
}

ClientLink::ClientLink(std::uint16_t port)
    : tcp_("127.0.0.1", port, net::TcpOptions{.io_timeout_seconds = 120.0}),
      counted_(tcp_) {}

Bytes ClientLink::call(BytesView request) {
    last_.assign(request.begin(), request.end());
    Bytes response = counted_.call(request);
    const BytesView inner = net::envelope_inner(request);
    if (!inner.empty() &&
        static_cast<MieOp>(inner[0]) == MieOp::kSearch) {
        work_.add(search_work_of(response));
    }
    return response;
}

Bytes ClientLink::resend_last() { return tcp_.call(last_); }

void ClientLink::reset() {
    counted_.reset();
    work_ = SearchWorkTally{};
}

void ClientTally::merge(const ClientTally& o) {
    pipeline_ops += o.pipeline_ops;
    extract_ms += o.extract_ms;
    encrypt_ms += o.encrypt_ms;
    sealed += o.sealed;
    seal_ms += o.seal_ms;
    opened += o.opened;
    open_ms += o.open_ms;
    open_in_op_ms += o.open_in_op_ms;
    bytes_up += o.bytes_up;
    bytes_down += o.bytes_down;
    work.merge(o.work);
}

double timed_seal_ms(const DataKeyring& keyring,
                     const sim::MultimodalObject& object) {
    const Bytes dk = keyring.data_key(object.id);
    const crypto::AesCtr cipher(dk);
    crypto::CtrDrbg nonce_gen(
        crypto::derive_key(dk, "nonce/" + std::to_string(object.id)));
    const Bytes nonce = nonce_gen.generate(crypto::AesCtr::kNonceSize);
    const Bytes plaintext = encode_object(object);
    const std::int64_t start = now_ns();
    const Bytes sealed = cipher.seal(nonce, plaintext);
    const std::int64_t end = now_ns();
    if (sealed.size() < plaintext.size()) {
        throw std::runtime_error("seal shrank its input");
    }
    return ms_between(start, end);
}

Bytes open_blob(const DataKeyring& keyring, std::uint64_t id, BytesView blob,
                ClientTally* tally) {
    const std::int64_t start = now_ns();
    const crypto::AesCtr cipher(keyring.data_key(id));
    Bytes plain = cipher.open(blob);
    if (tally != nullptr) {
        tally->open_ms += ms_between(start, now_ns());
        ++tally->opened;
    }
    return plain;
}

void check_decrypted(
    Checker& checker, std::vector<std::pair<std::uint64_t, Bytes>> opened,
    const std::map<std::uint64_t, sim::MultimodalObject>& truth) {
    if (checker.corrupt("decrypt") && !opened.empty() &&
        !opened.front().second.empty()) {
        opened.front().second.back() ^= 0x01;
    }
    std::size_t bad = 0;
    for (const auto& [id, plain] : opened) {
        const auto it = truth.find(id);
        if (it == truth.end() || encode_object(it->second) != plain) ++bad;
    }
    checker.check("decrypt", !opened.empty() && bad == 0,
                  std::to_string(bad) + " of " +
                      std::to_string(opened.size()) +
                      " decrypted results differ from the generator's objects");
}

std::vector<std::uint64_t> list_ids(net::Transport& link,
                                    const std::string& repo) {
    net::MessageWriter writer;
    writer.write_u8(static_cast<std::uint8_t>(MieOp::kListObjects));
    writer.write_string(repo);
    const Bytes response = link.call(writer.take());
    net::MessageReader reader(response);
    const std::uint32_t count = reader.read_u32();
    std::vector<std::uint64_t> ids;
    ids.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        ids.push_back(reader.read_u64());
        reader.read_bytes();
    }
    return ids;
}

double descriptors_per_object(
    const std::vector<sim::MultimodalObject>& objects) {
    if (objects.empty()) return 0.0;
    std::size_t total = 0;
    for (const auto& object : objects) {
        ExtractionParams params;
        params.pyramid.base_stride = 4;
        for (const auto& [modality, descriptors] :
             extract_multimodal(object, params).dense) {
            total += descriptors.size();
        }
    }
    return static_cast<double>(total) / static_cast<double>(objects.size());
}

RestartFigures measure_restart(
    const std::vector<std::string>& args, std::size_t times,
    const std::function<void(ServerProcess&)>& first_query,
    const std::function<void(ServerProcess&)>& on_first) {
    std::vector<double> restart_s, recovery_ms, first_query_ms;
    for (std::size_t i = 0; i < times; ++i) {
        const std::int64_t start = now_ns();
        ServerProcess server(args);
        const std::int64_t query_start = now_ns();
        first_query(server);
        const std::int64_t end = now_ns();
        restart_s.push_back(ms_between(start, end) / 1e3);
        recovery_ms.push_back(std::stod(server.ready().at(0)));
        first_query_ms.push_back(ms_between(query_start, end));
        if (i == 0 && on_first) on_first(server);
        server.quit();
    }
    return RestartFigures{quantile(restart_s, 0.5), quantile(recovery_ms, 0.5),
                          quantile(first_query_ms, 0.5)};
}

double ServerDelta::d(const std::string& key) const {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void fill_layers(const LayerInputs& in, Result& result) {
    const ClientTally& c = in.client;
    const ServerDelta& s = in.server;
    const double ops = static_cast<double>(in.ops);
    const auto span = [&](const std::string& name, const char* field) {
        return s.d("span." + name + "." + field);
    };
    const auto client_span = [&](const std::string& name) {
        const auto it = in.client_spans.find(name);
        return it == in.client_spans.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals call = client_span("net.call");
    double op_self_ms = 0.0;
    for (const auto& [name, totals] : in.client_spans) {
        if (name.starts_with("op.")) op_self_ms += totals.self_ms;
    }
    const double pipeline = static_cast<double>(c.pipeline_ops);

    auto& m = result.per_layer;
    m["features.extract_ms"] = {ratio(c.extract_ms, pipeline), "ms/op"};
    m["features.descriptors_per_object"] = {in.descriptors_per_object,
                                            "count"};
    m["dpe.encode_ms"] = {ratio(c.encrypt_ms - c.seal_ms, pipeline), "ms/op"};
    m["crypto.seal_ms"] = {ratio(c.seal_ms, static_cast<double>(c.sealed)),
                           "ms/op"};
    m["crypto.open_ms"] = {ratio(c.open_ms, static_cast<double>(c.opened)),
                           "ms/result"};
    m["net.call_ms"] = {ratio(call.total_ms, static_cast<double>(call.count)),
                        "ms/call"};
    m["net.bytes_up_per_op"] = {ratio(static_cast<double>(c.bytes_up), ops),
                                "B"};
    m["net.bytes_down_per_op"] = {
        ratio(static_cast<double>(c.bytes_down), ops), "B"};
    m["reactor.wait_ms"] = {
        ratio(call.total_ms - s.d("read_ns") / 1e6 -
                  s.d("batch_weighted_ns") / 1e6,
              static_cast<double>(call.count)),
        "ms/op"};
    m["reactor.records_per_batch"] = {
        ratio(s.d("batch_requests"), s.d("batches")), "records"};
    m["mie.apply_ms"] = {
        ratio(span("mie.handle_batch", "self_ms"), s.d("batch_requests")),
        "ms/record"};
    m["mie.search_ms"] = {ratio(span("mie.search", "total_ms"),
                                span("mie.search", "count")),
                          "ms/search"};
    m["index.postings_scored_per_search"] = {
        ratio(static_cast<double>(c.work.postings),
              static_cast<double>(c.work.searches)),
        "count"};
    m["index.descriptors_kept_share"] = {
        ratio(static_cast<double>(c.work.kept),
              static_cast<double>(c.work.query_descriptors)),
        "ratio"};
    m["store.append_ms"] = {ratio(span("store.append", "total_ms"),
                                  span("store.append", "count")),
                            "ms/call"};
    m["store.sync_ms"] = {
        ratio(span("store.sync", "total_ms"), span("store.sync", "count")),
        "ms/call"};
    m["store.syncs_per_op"] = {ratio(s.d("wal_syncs"), ops), "count"};
    m["store.wal_bytes_per_op"] = {ratio(s.d("wal_bytes"), ops), "B"};
    m["store.checkpoints"] = {in.checkpoints, "count"};
    m["store.checkpoint_ms"] = {ratio(span("store.checkpoint", "total_ms"),
                                      span("store.checkpoint", "count")),
                                "ms"};
    m["store.recovery_ms"] = {in.restart.recovery_ms, "ms"};
    m["store.first_query_ms"] = {in.restart.first_query_ms, "ms"};
    m["trace.remainder_ms"] = {
        ratio(op_self_ms - c.extract_ms - c.encrypt_ms - c.open_in_op_ms, ops),
        "ms/op"};
    m["trace.overhead_ms"] = {in.traced_op_ms - in.untraced_op_ms, "ms/op"};
}

}  // namespace perfbench
