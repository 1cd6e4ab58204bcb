#include "src/fleet/serve.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/transport.h"
#include "src/observability/flat_json.h"
#include "src/observability/frame_channel.h"

namespace mumak {
namespace fleet {
namespace {

volatile sig_atomic_t g_serve_stop = 0;

void HandleServeStop(int) { g_serve_stop = 1; }

bool FillSockaddr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

std::string ArgvArrayJson(const std::vector<std::string>& args) {
  std::string out = "[";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += '"';
    out += JsonEscape(args[i]);
    out += '"';
  }
  out += "]";
  return out;
}

std::string SelfExePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return std::string();
  }
  buf[n] = '\0';
  return std::string(buf);
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

// Does the submitted argv already carry `flag` (as `--flag` or `--flag=`)?
bool HasFlag(const std::vector<std::string>& args, const std::string& flag) {
  for (const std::string& arg : args) {
    if (arg == flag || arg.rfind(flag + "=", 0) == 0) {
      return true;
    }
  }
  return false;
}

// One submitted campaign, from enqueue to its result frame.
struct ServeJob {
  uint64_t id = 0;
  std::vector<std::string> args;
  // The submitter's connection; null once it disconnected (which cancels
  // the job) or the result was delivered.
  FrameChannel* client = nullptr;
  enum class State { kQueued, kRunning, kDone };
  State state = State::kQueued;
  pid_t pid = -1;
  int out_fd = -1;  // campaign stdout (the report)
  int err_fd = -1;  // campaign stderr (the log)
  std::string report;
  std::string log;
  int exit_code = -1;
  bool canceled = false;
  std::string stop_reason;
};

const char* StateName(ServeJob::State state) {
  switch (state) {
    case ServeJob::State::kQueued:
      return "queued";
    case ServeJob::State::kRunning:
      return "running";
    case ServeJob::State::kDone:
      return "done";
  }
  return "?";
}

// One accepted connection. `job_id` is nonzero after it submitted a job:
// the connection then doubles as the job's cancellation scope — if it
// drops before the result frame, the job is canceled, never re-queued.
struct ClientConn {
  std::unique_ptr<FrameChannel> channel;
  uint64_t job_id = 0;
};

int ConnectClient(const std::string& socket_path) {
  sockaddr_un addr;
  if (!FillSockaddr(socket_path, &addr)) {
    std::fprintf(stderr, "mumak: bad socket path '%s'\n",
                 socket_path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "mumak: socket: %s\n", std::strerror(errno));
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::fprintf(stderr, "mumak: cannot connect to %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client round trip: sends `request` and blocks for the daemon's
// reply. False (with the reason on stderr) when the daemon is unreachable
// or hangs up first.
bool Exchange(const std::string& socket_path, const std::string& request,
              const char* verb, JsonValue* reply) {
  const int fd = ConnectClient(socket_path);
  if (fd < 0) {
    return false;
  }
  FrameChannel channel(fd, kFleetMaxPayload);
  if (!channel.Send(request) ||
      channel.Receive(reply, FrameChannel::kNoDeadline) !=
          FrameChannel::Receipt::kMessage) {
    std::fprintf(stderr, "mumak: %s: daemon hung up\n", verb);
    return false;
  }
  return true;
}

}  // namespace

std::string SubmitCacheKey(const std::vector<std::string>& args) {
  // Flags that change how a campaign is scheduled or observed, but not
  // which trace it profiles or which checks it runs — two submissions that
  // differ only here produce the same verdicts and may share a cache.
  static const char* const kSchedulingPrefixes[] = {
      "--fleet-",   "--budget-",      "--journal",       "--resume-journal",
      "--metrics",  "--progress",     "--trace-events",  "--verdict-cache",
      "--jobs",     "--analysis-jobs",
  };
  std::vector<std::string> kept;
  kept.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    bool scheduling = false;
    for (const char* prefix : kSchedulingPrefixes) {
      if (arg.rfind(prefix, 0) == 0) {
        scheduling = true;
        break;
      }
    }
    if (!scheduling) {
      kept.push_back(arg);
      continue;
    }
    // `--flag value`: the value token rides along unless it is itself a
    // flag (covers boolean flags like --progress).
    if (arg.find('=') == std::string::npos && i + 1 < args.size() &&
        args[i + 1].rfind("--", 0) != 0) {
      ++i;
    }
  }
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::string& arg : kept) {
    for (const unsigned char c : arg) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xffu;  // argument separator: {"ab"} != {"a", "b"}
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

int RunServeDaemon(const ServeOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleServeStop;  // no SA_RESTART: interrupt poll()
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  sockaddr_un addr;
  if (!FillSockaddr(options.socket_path, &addr)) {
    std::fprintf(stderr, "mumak: bad socket path '%s'\n",
                 options.socket_path.c_str());
    return 2;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "mumak: socket: %s\n", std::strerror(errno));
    return 2;
  }
  ::unlink(options.socket_path.c_str());  // stale socket of a killed daemon
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::fprintf(stderr, "mumak: cannot listen on %s: %s\n",
                 options.socket_path.c_str(), std::strerror(errno));
    ::close(listener);
    return 2;
  }
  std::fprintf(stderr, "mumak: serving on %s (%u fleet worker(s))\n",
               options.socket_path.c_str(), options.default_workers);
  std::fprintf(stderr, "mumak: serve: job queue ready (%u concurrent)\n",
               std::max<uint32_t>(options.max_jobs, 1));

  std::vector<ServeJob> jobs;
  std::vector<ClientConn> clients;
  uint64_t next_job_id = 1;
  uint64_t jobs_done = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_canceled = 0;
  uint64_t bugs_found = 0;
  const uint32_t max_jobs = std::max<uint32_t>(options.max_jobs, 1);

  auto running_count = [&] {
    size_t n = 0;
    for (const ServeJob& job : jobs) {
      n += job.state == ServeJob::State::kRunning ? 1 : 0;
    }
    return n;
  };
  auto queued_count = [&] {
    size_t n = 0;
    for (const ServeJob& job : jobs) {
      n += job.state == ServeJob::State::kQueued ? 1 : 0;
    }
    return n;
  };
  auto find_job = [&](uint64_t id) -> ServeJob* {
    for (ServeJob& job : jobs) {
      if (job.id == id) {
        return &job;
      }
    }
    return nullptr;
  };

  // Delivers the result frame (when the submitter is still connected) and
  // folds the job into the counters.
  auto finish_job = [&](ServeJob* job) {
    job->state = ServeJob::State::kDone;
    if (job->canceled) {
      job->stop_reason = "canceled";
      ++jobs_canceled;
    } else if (job->log.find("injection budget exhausted") !=
               std::string::npos) {
      // The campaign's own --budget-* stop; still a completed job (the
      // journal footer records the partial report).
      job->stop_reason = "budget-exhausted";
    } else if (job->exit_code == 0) {
      job->stop_reason = "ok";
    } else if (job->exit_code == 1) {
      job->stop_reason = "bugs";
    } else {
      job->stop_reason = "failed";
    }
    if (!job->canceled) {
      if (job->exit_code == 0 || job->exit_code == 1) {
        ++jobs_done;
        bugs_found += job->exit_code;  // exit 1 == bugs were found
      } else {
        ++jobs_failed;
      }
    }
    if (job->client != nullptr) {
      job->client->Send(
          JsonObject()
              .Str("type", "result")
              .U64("exit", static_cast<uint64_t>(std::max(job->exit_code, 0)))
              .Str("stop", job->stop_reason)
              .Str("report", job->report)
              .Str("log", job->log)
              .Finish());
      job->client->Close();  // the sweep below drops the connection
      job->client = nullptr;
    }
    job->report.clear();  // delivered (or undeliverable); don't hoard it
    job->log.clear();
  };

  // Forks and execs one queued job. The re-exec binary comes from
  // MUMAK_SERVE_EXEC (tests) or /proc/self/exe.
  auto start_job = [&](ServeJob* job) {
    const char* env_exe = std::getenv("MUMAK_SERVE_EXEC");
    const std::string exe =
        env_exe != nullptr && env_exe[0] != '\0' ? env_exe : SelfExePath();
    if (exe.empty()) {
      job->log = "mumak: serve: cannot resolve /proc/self/exe";
      job->exit_code = 2;
      finish_job(job);
      return;
    }
    std::vector<std::string> full;
    full.push_back(exe);
    for (const std::string& arg : job->args) {
      full.push_back(arg);
    }
    if (options.default_workers > 0 &&
        !HasFlag(job->args, "--fleet-workers")) {
      full.push_back("--fleet-workers");
      full.push_back(std::to_string(options.default_workers));
    }
    if (options.budget_checks > 0 && !HasFlag(job->args, "--budget-checks")) {
      full.push_back("--budget-checks");
      full.push_back(std::to_string(options.budget_checks));
    }
    if (options.budget_seconds > 0 &&
        !HasFlag(job->args, "--budget-seconds")) {
      full.push_back("--budget-seconds");
      full.push_back(std::to_string(options.budget_seconds));
    }
    if (!options.cache_dir.empty() &&
        !HasFlag(job->args, "--verdict-cache")) {
      full.push_back("--verdict-cache");
      full.push_back(options.cache_dir + "/" + SubmitCacheKey(job->args) +
                     ".mvc");
    }

    int out_pipe[2];
    int err_pipe[2];
    if (::pipe(out_pipe) != 0) {
      job->log = "mumak: serve: pipe failed";
      job->exit_code = 2;
      finish_job(job);
      return;
    }
    if (::pipe(err_pipe) != 0) {
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      job->log = "mumak: serve: pipe failed";
      job->exit_code = 2;
      finish_job(job);
      return;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
      job->log = "mumak: serve: fork failed";
      job->exit_code = 2;
      finish_job(job);
      return;
    }
    if (pid == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
      std::vector<char*> argv;
      argv.reserve(full.size() + 1);
      for (const std::string& arg : full) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(exe.c_str(), argv.data());
      std::fprintf(stderr, "mumak: serve: execv %s: %s\n", exe.c_str(),
                   std::strerror(errno));
      ::_exit(2);
    }
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    SetNonBlocking(out_pipe[0]);
    SetNonBlocking(err_pipe[0]);
    job->pid = pid;
    job->out_fd = out_pipe[0];
    job->err_fd = err_pipe[0];
    job->state = ServeJob::State::kRunning;
  };

  // Non-blocking drain of one campaign pipe; returns false at EOF.
  auto drain_job_pipe = [](int fd, std::string* out) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        out->append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // EOF (or a hard error: treat as EOF)
    }
  };

  auto status_reply = [&] {
    std::string jobs_json = "[";
    // Oldest jobs age out of the status view, never out of the counters.
    const size_t first = jobs.size() > 32 ? jobs.size() - 32 : 0;
    for (size_t i = first; i < jobs.size(); ++i) {
      const ServeJob& job = jobs[i];
      if (i != first) {
        jobs_json += ", ";
      }
      jobs_json += JsonObject()
                       .U64("id", job.id)
                       .Str("state", StateName(job.state))
                       .U64("exit", static_cast<uint64_t>(
                                        std::max(job.exit_code, 0)))
                       .Str("stop", job.stop_reason)
                       .Finish();
    }
    jobs_json += "]";
    return JsonObject()
        .Str("type", "status")
        .U64("jobs_done", jobs_done)
        .U64("jobs_failed", jobs_failed)
        .U64("jobs_canceled", jobs_canceled)
        .U64("bugs_found", bugs_found)
        .U64("workers", options.default_workers)
        .U64("queue_depth", queued_count())
        .U64("running", running_count())
        .U64("max_jobs", max_jobs)
        .Raw("jobs", jobs_json)
        .Finish();
  };

  // A submitter that disconnects takes its job with it: a queued job is
  // dropped, a running one killed. Nothing is re-queued — stale work must
  // not outlive the client that asked for it.
  auto cancel_for_disconnect = [&](uint64_t job_id) {
    ServeJob* job = find_job(job_id);
    if (job == nullptr) {
      return;
    }
    job->client = nullptr;
    if (job->state == ServeJob::State::kQueued) {
      job->canceled = true;
      job->exit_code = 0;
      finish_job(job);
    } else if (job->state == ServeJob::State::kRunning) {
      job->canceled = true;
      ::kill(job->pid, SIGKILL);  // the pipe EOFs drive the normal reap
    }
  };

  // Handles one decoded request frame; returns false when the connection
  // should close (status served, error, or garbage).
  auto handle_request = [&](ClientConn* conn, const JsonValue& request) {
    const std::string type = request.Str("type");
    if (type == "status") {
      conn->channel->Send(status_reply());
      return false;
    }
    if (type == "submit") {
      if (conn->job_id != 0) {
        return false;  // one job per connection
      }
      std::vector<std::string> args;
      const JsonValue* argv = request.Find("argv");
      if (argv != nullptr && argv->type == JsonValue::Type::kArray) {
        for (const JsonValue& item : argv->array) {
          if (item.type == JsonValue::Type::kString) {
            args.push_back(item.string);
          }
        }
      }
      if (args.empty()) {
        conn->channel->Send(JsonObject()
                                .Str("type", "error")
                                .Str("detail", "submit carried no argv")
                                .Finish());
        return false;
      }
      ServeJob job;
      job.id = next_job_id++;
      job.args = std::move(args);
      job.client = conn->channel.get();
      conn->job_id = job.id;
      jobs.push_back(std::move(job));
      return true;  // connection stays open until the result frame
    }
    conn->channel->Send(
        JsonObject()
            .Str("type", "error")
            .Str("detail", "unknown request type '" + type + "'")
            .Finish());
    return false;
  };

  while (g_serve_stop == 0) {
    // Admit queued jobs into free run slots, oldest first.
    while (running_count() < max_jobs) {
      ServeJob* next = nullptr;
      for (ServeJob& job : jobs) {
        if (job.state == ServeJob::State::kQueued) {
          next = &job;
          break;
        }
      }
      if (next == nullptr) {
        break;
      }
      start_job(next);
    }

    struct PollRef {
      enum class Kind { kListener, kClient, kJobOut, kJobErr } kind;
      size_t index;
    };
    std::vector<pollfd> pfds;
    std::vector<PollRef> refs;
    pfds.push_back({listener, POLLIN, 0});
    refs.push_back({PollRef::Kind::kListener, 0});
    for (size_t c = 0; c < clients.size(); ++c) {
      if (clients[c].channel->ok()) {
        pfds.push_back({clients[c].channel->fd(), POLLIN, 0});
        refs.push_back({PollRef::Kind::kClient, c});
      }
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].state != ServeJob::State::kRunning) {
        continue;
      }
      if (jobs[j].out_fd >= 0) {
        pfds.push_back({jobs[j].out_fd, POLLIN, 0});
        refs.push_back({PollRef::Kind::kJobOut, j});
      }
      if (jobs[j].err_fd >= 0) {
        pfds.push_back({jobs[j].err_fd, POLLIN, 0});
        refs.push_back({PollRef::Kind::kJobErr, j});
      }
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 200);
    if (ready < 0 && errno != EINTR) {
      std::fprintf(stderr, "mumak: serve: poll: %s\n", std::strerror(errno));
      break;
    }
    if (g_serve_stop != 0) {
      break;
    }
    for (size_t p = 0; p < pfds.size() && ready > 0; ++p) {
      if (pfds[p].revents == 0) {
        continue;
      }
      const PollRef ref = refs[p];
      if (ref.kind == PollRef::Kind::kListener) {
        const int client = ::accept(listener, nullptr, nullptr);
        if (client >= 0) {
          SetNonBlocking(client);
          ClientConn conn;
          conn.channel =
              std::make_unique<FrameChannel>(client, kFleetMaxPayload);
          clients.push_back(std::move(conn));
        }
        continue;
      }
      if (ref.kind == PollRef::Kind::kJobOut ||
          ref.kind == PollRef::Kind::kJobErr) {
        ServeJob& job = jobs[ref.index];
        int* fd = ref.kind == PollRef::Kind::kJobOut ? &job.out_fd
                                                     : &job.err_fd;
        std::string* sink =
            ref.kind == PollRef::Kind::kJobOut ? &job.report : &job.log;
        if (*fd >= 0 && !drain_job_pipe(*fd, sink)) {
          ::close(*fd);
          *fd = -1;
        }
        if (job.out_fd < 0 && job.err_fd < 0 &&
            job.state == ServeJob::State::kRunning) {
          // Both streams closed: the campaign (and anything that inherited
          // its stdio) has exited. Reap and deliver.
          int status = 0;
          while (::waitpid(job.pid, &status, 0) < 0 && errno == EINTR) {
          }
          if (WIFEXITED(status)) {
            job.exit_code = WEXITSTATUS(status);
          } else if (WIFSIGNALED(status)) {
            job.exit_code = 128 + WTERMSIG(status);
          } else {
            job.exit_code = 2;
          }
          job.pid = -1;
          finish_job(&job);
        }
        continue;
      }
      // Client traffic (or hangup): requests until nothing more is
      // readable; a hangup, a corrupt stream or a request that ends the
      // exchange closes the connection.
      ClientConn& conn = clients[ref.index];
      bool closed = false;
      while (conn.channel->ok() && !closed) {
        JsonValue request;
        const FrameChannel::Receipt got =
            conn.channel->Receive(&request, FrameChannel::Clock::now());
        if (got == FrameChannel::Receipt::kTimeout) {
          break;
        }
        closed = got != FrameChannel::Receipt::kMessage ||
                 !handle_request(&conn, request);
      }
      if (closed) {
        conn.channel->Close();
        if (conn.job_id != 0) {
          cancel_for_disconnect(conn.job_id);
        }
      }
    }
    clients.erase(std::remove_if(clients.begin(), clients.end(),
                                 [](const ClientConn& conn) {
                                   return !conn.channel->ok();
                                 }),
                  clients.end());
  }

  // Shutdown: running campaigns die with the daemon (their journals are
  // crash-safe; a resubmission resumes). Waiting clients see EOF.
  for (ServeJob& job : jobs) {
    if (job.state != ServeJob::State::kRunning) {
      continue;
    }
    if (job.pid >= 0) {
      ::kill(job.pid, SIGKILL);
      int status = 0;
      while (::waitpid(job.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    if (job.out_fd >= 0) {
      ::close(job.out_fd);
    }
    if (job.err_fd >= 0) {
      ::close(job.err_fd);
    }
  }
  clients.clear();  // closes every connection
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  std::fprintf(stderr, "mumak: serve: shut down (%llu job(s) done)\n",
               static_cast<unsigned long long>(jobs_done));
  return 0;
}

int RunSubmitClient(const std::string& socket_path,
                    const std::vector<std::string>& campaign_args) {
  ::signal(SIGPIPE, SIG_IGN);
  if (campaign_args.empty()) {
    std::fprintf(stderr,
                 "mumak: submit: no campaign arguments (usage: mumak submit "
                 "--socket PATH -- --target <name> ...)\n");
    return 2;
  }
  JsonValue reply;
  if (!Exchange(socket_path,
                JsonObject()
                    .Str("type", "submit")
                    .Raw("argv", ArgvArrayJson(campaign_args))
                    .Finish(),
                "submit", &reply)) {
    return 2;
  }
  if (reply.Str("type") != "result") {
    std::fprintf(stderr, "mumak: submit: %s\n",
                 reply.Str("detail").c_str());
    return 2;
  }
  const std::string log = reply.Str("log");
  if (!log.empty()) {
    std::fputs(log.c_str(), stderr);
  }
  std::fputs(reply.Str("report").c_str(), stdout);
  return static_cast<int>(reply.U64("exit"));
}

int RunStatusClient(const std::string& socket_path) {
  ::signal(SIGPIPE, SIG_IGN);
  JsonValue reply;
  if (!Exchange(socket_path, JsonObject().Str("type", "status").Finish(),
                "status", &reply)) {
    return 2;
  }
  std::printf(
      "mumak serve: %llu job(s) done, %llu failed, %llu with bugs, fleet "
      "workers %llu\n",
      static_cast<unsigned long long>(reply.U64("jobs_done")),
      static_cast<unsigned long long>(reply.U64("jobs_failed")),
      static_cast<unsigned long long>(reply.U64("bugs_found")),
      static_cast<unsigned long long>(reply.U64("workers")));
  std::printf(
      "mumak serve: queue: %llu queued, %llu running (max %llu), %llu "
      "canceled\n",
      static_cast<unsigned long long>(reply.U64("queue_depth")),
      static_cast<unsigned long long>(reply.U64("running")),
      static_cast<unsigned long long>(reply.U64("max_jobs")),
      static_cast<unsigned long long>(reply.U64("jobs_canceled")));
  const JsonValue* job_list = reply.Find("jobs");
  if (job_list != nullptr && job_list->type == JsonValue::Type::kArray) {
    for (const JsonValue& job : job_list->array) {
      if (job.type != JsonValue::Type::kObject) {
        continue;
      }
      const std::string state = job.Str("state");
      if (state == "done") {
        std::printf("mumak serve: job %llu: done (exit %llu, %s)\n",
                    static_cast<unsigned long long>(job.U64("id")),
                    static_cast<unsigned long long>(job.U64("exit")),
                    job.Str("stop").c_str());
      } else {
        std::printf("mumak serve: job %llu: %s\n",
                    static_cast<unsigned long long>(job.U64("id")),
                    state.c_str());
      }
    }
  }
  return 0;
}

}  // namespace fleet
}  // namespace mumak
