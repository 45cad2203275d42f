// Pipe and inter-process-communication tests: tests 55-64.
#include "workload/suite_internal.hpp"

namespace osiris::workload {

using os::ISys;
using namespace osiris::servers;
using kernel::E_BADF;
using kernel::E_PIPE;
using kernel::OK;

namespace {

std::int64_t t_pipe_basic(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  REQ_EQ(wr(sys, fds[1], "hello"), 5);
  char buf[8] = {};
  REQ_EQ(rd(sys, fds[0], buf, 5), 5);
  REQ_EQ(std::string_view(buf, 5), std::string_view("hello"));
  REQ_EQ(sys.close(fds[0]), OK);
  REQ_EQ(sys.close(fds[1]), OK);
  return 0;
}

std::int64_t t_pipe_wrong_direction(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  char b = 'x';
  REQ_EQ(wr(sys, fds[0], "x"), E_BADF);  // write to the read end
  REQ_EQ(rd(sys, fds[1], &b, 1), E_BADF);  // read from the write end
  sys.close(fds[0]);
  sys.close(fds[1]);
  return 0;
}

std::int64_t t_pipe_eof_on_writer_close(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  REQ_EQ(wr(sys, fds[1], "zz"), 2);
  REQ_EQ(sys.close(fds[1]), OK);
  char buf[4];
  REQ_EQ(rd(sys, fds[0], buf, 4), 2);
  REQ_EQ(rd(sys, fds[0], buf, 4), 0);  // EOF
  REQ_EQ(sys.close(fds[0]), OK);
  return 0;
}

std::int64_t t_pipe_epipe_on_reader_close(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  REQ_EQ(sys.close(fds[0]), OK);
  REQ_EQ(wr(sys, fds[1], "x"), E_PIPE);
  REQ_EQ(sys.close(fds[1]), OK);
  return 0;
}

std::int64_t t_pipe_blocking_read(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  const std::int64_t pid = sys.fork([fds](ISys& c) {
    char buf[8] = {};
    const std::int64_t n = rd(c, fds[0], buf, 4);  // blocks until data
    c.exit(n == 4 && std::string_view(buf, 4) == "late" ? 0 : 1);
  });
  REQ(pid > 0);
  // Do a little work first so the child is parked in the blocked-reader slot.
  for (int i = 0; i < 5; ++i) sys.getpid();
  REQ_EQ(wr(sys, fds[1], "late"), 4);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  sys.close(fds[0]);
  sys.close(fds[1]);
  return 0;
}

std::int64_t t_pipe_blocking_write(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  // Fill the pipe to capacity (4096 bytes).
  std::string chunk(1024, 'F');
  for (int i = 0; i < 4; ++i) REQ_EQ(wr(sys, fds[1], chunk), 1024);
  const std::int64_t pid = sys.fork([fds](ISys& c) {
    // This write must block until the parent drains.
    const std::int64_t n = wr(c, fds[1], "over");
    c.exit(n == 4 ? 0 : 1);
  });
  REQ(pid > 0);
  for (int i = 0; i < 5; ++i) sys.getpid();
  char buf[512];
  REQ_EQ(rd(sys, fds[0], buf, sizeof buf), 512);
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  sys.close(fds[0]);
  sys.close(fds[1]);
  return 0;
}

std::int64_t t_pipe_pingpong(ISys& sys) {
  std::int64_t up[2], down[2];
  REQ_EQ(sys.pipe(up), OK);
  REQ_EQ(sys.pipe(down), OK);
  const std::int64_t pid = sys.fork([up, down](ISys& c) {
    for (int i = 0; i < 10; ++i) {
      char b = 0;
      if (rd(c, up[0], &b, 1) != 1) c.exit(1);
      ++b;
      if (wr(c, down[1], std::string_view(&b, 1)) != 1) c.exit(2);
    }
    c.exit(0);
  });
  REQ(pid > 0);
  for (char i = 0; i < 10; ++i) {
    const char out = static_cast<char>('a' + i);
    REQ_EQ(wr(sys, up[1], std::string_view(&out, 1)), 1);
    char in = 0;
    REQ_EQ(rd(sys, down[0], &in, 1), 1);
    REQ_EQ(in, out + 1);
  }
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  for (auto fd : {up[0], up[1], down[0], down[1]}) sys.close(fd);
  return 0;
}

std::int64_t t_pipe_fd_inherited(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  const std::int64_t pid = sys.fork([fds](ISys& c) {
    c.close(fds[0]);
    const std::int64_t n = wr(c, fds[1], "inherit");
    c.close(fds[1]);
    c.exit(n == 7 ? 0 : 1);
  });
  REQ(pid > 0);
  REQ_EQ(sys.close(fds[1]), OK);
  char buf[16] = {};
  REQ_EQ(rd(sys, fds[0], buf, 7), 7);
  REQ_EQ(std::string_view(buf, 7), std::string_view("inherit"));
  REQ_EQ(rd(sys, fds[0], buf, 1), 0);  // child closed its write end: EOF
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(s, 0);
  REQ_EQ(sys.close(fds[0]), OK);
  return 0;
}

std::int64_t t_pipe_eof_via_child_exit(ISys& sys) {
  // The child never closes explicitly: exit() must release its pipe ends.
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  const std::int64_t pid = sys.fork([fds](ISys& c) {
    wr(c, fds[1], "bye");
    c.exit(0);
  });
  REQ(pid > 0);
  REQ_EQ(sys.close(fds[1]), OK);
  char buf[8];
  REQ_EQ(rd(sys, fds[0], buf, 3), 3);
  REQ_EQ(rd(sys, fds[0], buf, 3), 0);  // EOF only if child's end was closed
  std::int64_t s = -1;
  REQ_EQ(sys.wait_pid(pid, &s), pid);
  REQ_EQ(sys.close(fds[0]), OK);
  return 0;
}

std::int64_t t_pipe_dup_end(ISys& sys) {
  std::int64_t fds[2];
  REQ_EQ(sys.pipe(fds), OK);
  const std::int64_t w2 = sys.dup(fds[1]);
  REQ(w2 >= 0);
  REQ_EQ(sys.close(fds[1]), OK);
  REQ_EQ(wr(sys, w2, "still"), 5);  // writable through the dup
  char buf[8];
  REQ_EQ(rd(sys, fds[0], buf, 5), 5);
  REQ_EQ(sys.close(w2), OK);
  REQ_EQ(rd(sys, fds[0], buf, 1), 0);  // now EOF
  REQ_EQ(sys.close(fds[0]), OK);
  return 0;
}

}  // namespace

void add_pipe_tests(std::vector<SuiteTest>& out) {
  auto add = [&out](const char* name, std::function<std::int64_t(os::ISys&)> body) {
    out.push_back(SuiteTest{name, "pipe", std::move(body)});
  };
  add("pipe-basic", t_pipe_basic);
  add("pipe-wrong-direction", t_pipe_wrong_direction);
  add("pipe-eof-on-writer-close", t_pipe_eof_on_writer_close);
  add("pipe-epipe-on-reader-close", t_pipe_epipe_on_reader_close);
  add("pipe-blocking-read", t_pipe_blocking_read);
  add("pipe-blocking-write", t_pipe_blocking_write);
  add("pipe-pingpong", t_pipe_pingpong);
  add("pipe-fd-inherited", t_pipe_fd_inherited);
  add("pipe-eof-via-child-exit", t_pipe_eof_via_child_exit);
  add("pipe-dup-end", t_pipe_dup_end);
}

}  // namespace osiris::workload
