#include "server.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

enum class Read { data, eof, timeout };

/// Appends whatever `fd` yields within `timeout_ms`.
Read read_some(int fd, std::string& into, int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return Read::timeout;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return Read::eof;
    into.append(buf, static_cast<std::size_t>(n));
    return Read::data;
}

/// The number after `key` in a /proc status file; 0 when absent.
double status_field(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
    return 0.0;
}

}  // namespace

ServerProcess::ServerProcess(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
        ::close(out_);
        throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        if (const auto at = output_.find("listening on "); at != std::string::npos) {
            const auto eol = output_.find('\n', at);
            if (eol != std::string::npos) {
                const auto colon = output_.rfind(':', eol);
                port_ = static_cast<std::uint16_t>(std::stoul(output_.substr(colon + 1)));
                return;
            }
        }
        if (std::chrono::steady_clock::now() > deadline ||
            read_some(out_, output_, 1000) == Read::eof) {
            stop();
            throw std::runtime_error("server did not start listening; output: " + output_);
        }
    }
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline &&
           read_some(out_, output_, 500) != Read::eof) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_);
    out_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
           output_.find("drained") != std::string::npos;
}

ProcSample ServerProcess::sample() const {
    ProcSample s;
    const std::string dir = "/proc/" + std::to_string(pid_);
    {
        std::ifstream in(dir + "/stat");
        std::string stat((std::istreambuf_iterator<char>(in)), {});
        // Fields after the command name: state is field 3, utime 14, stime 15.
        std::istringstream rest(stat.substr(stat.rfind(')') + 2));
        std::string field;
        double utime = 0.0, stime = 0.0;
        for (int f = 3; f <= 15 && rest >> field; ++f) {
            if (f == 14) utime = std::stod(field);
            if (f == 15) stime = std::stod(field);
        }
        const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
        s.user_s = utime / tick;
        s.sys_s = stime / tick;
    }
    s.threads = static_cast<std::uint64_t>(status_field(dir + "/status", "Threads:"));
    s.hwm_mib = status_field(dir + "/status", "VmHWM:") / 1024.0;
    if (DIR* tasks = ::opendir((dir + "/task").c_str())) {
        while (const dirent* e = ::readdir(tasks)) {
            if (e->d_name[0] == '.') continue;
            s.voluntary_switches += static_cast<std::uint64_t>(status_field(
                dir + "/task/" + e->d_name + "/status", "voluntary_ctxt_switches:"));
        }
        ::closedir(tasks);
    }
    return s;
}

}  // namespace perfbench
