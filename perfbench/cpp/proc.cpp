#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

std::string self_exe() {
    char buf[PATH_MAX];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) throw std::runtime_error("readlink /proc/self/exe failed");
    return std::string(buf, static_cast<std::size_t>(n));
}

// Every reply arrives well within this; a server that stops answering
// fails the run instead of hanging it.
constexpr int kReplyTimeoutMs = 120000;

}  // namespace

std::vector<std::string> split_words(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < line.size()) {
        const std::size_t next = line.find(' ', pos);
        const std::size_t end = next == std::string::npos ? line.size() : next;
        if (end > pos) out.push_back(line.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

ServerProcess::ServerProcess(const std::vector<std::string>& args) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
        throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    ::posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);

    const std::string exe = self_exe();
    std::vector<std::string> argv_storage = {exe, "serve"};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    if (rc != 0) {
        pid_ = -1;
        ::close(to_child_);
        ::close(from_child_);
        throw std::runtime_error(std::string("posix_spawn: ") +
                                 std::strerror(rc));
    }
    const std::vector<std::string> words = split_words(read_line());
    if (words.empty() || words[0] != "READY") {
        reap(true);
        throw std::runtime_error("server did not start");
    }
    ready_.assign(words.begin() + 1, words.end());
}

ServerProcess::~ServerProcess() { reap(false); }

std::string ServerProcess::read_line() {
    for (;;) {
        const std::size_t nl = buffered_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffered_.substr(0, nl);
            buffered_.erase(0, nl + 1);
            return line;
        }
        pollfd pfd{from_child_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) throw std::runtime_error("server reply timed out");
        char buf[4096];
        const ssize_t n = ::read(from_child_, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::runtime_error("server exited unexpectedly");
        buffered_.append(buf, static_cast<std::size_t>(n));
    }
}

std::vector<std::string> ServerProcess::command(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::write(to_child_, out.data() + off, out.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::runtime_error("server stdin closed");
        off += static_cast<std::size_t>(n);
    }
    std::vector<std::string> words = split_words(read_line());
    if (words.empty() || words[0] != "OK") {
        std::string reply;
        for (const auto& w : words) reply += w + " ";
        throw std::runtime_error("server command '" + line + "' failed: " +
                                 reply);
    }
    words.erase(words.begin());
    return words;
}

std::map<std::string, double> ServerProcess::stats() {
    std::map<std::string, double> out;
    for (const std::string& word : command("STATS")) {
        const std::size_t eq = word.find('=');
        if (eq == std::string::npos) continue;
        out[word.substr(0, eq)] = std::stod(word.substr(eq + 1));
    }
    return out;
}

double ServerProcess::quit() {
    command("QUIT");
    reap(false);
    return peak_rss_mib_;
}

void ServerProcess::reap(bool force) {
    if (to_child_ >= 0) {
        ::close(to_child_);  // EOF on stdin makes the server exit
        to_child_ = -1;
    }
    if (pid_ > 0) {
        if (force) ::kill(pid_, SIGKILL);
        int status = 0;
        rusage usage{};
        // Bounded wait: a server that ignores EOF is killed.
        for (int i = 0; i < 3000; ++i) {
            const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
            if (r == pid_) {
                pid_ = -1;
                break;
            }
            if (r < 0 && errno != EINTR) {
                pid_ = -1;
                break;
            }
            ::usleep(10000);
        }
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::wait4(pid_, &status, 0, &usage);
            pid_ = -1;
        }
        peak_rss_mib_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    if (from_child_ >= 0) {
        ::close(from_child_);
        from_child_ = -1;
    }
}

}  // namespace perfbench
