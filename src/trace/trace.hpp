// Compile-out-able tracing macro layer.
//
// Instrumented modules (kernel, ckpt, seep, fi, recovery, servers) include
// this header — and only this header — to emit trace events:
//
//   OSIRIS_TRACE_EVENT(kIpcSend, /*comp=*/0, src, dst, type);
//
// The build option OSIRIS_TRACE (CMake, default ON) defines
// OSIRIS_TRACE_ENABLED. With -DOSIRIS_TRACE=OFF every macro expands to
// ((void)0), trace/tracer.hpp is never included, the osiris_trace library is
// not built, and the resulting binaries contain zero osiris::trace symbols
// (the compile-out guarantee, checked in CI with nm). With tracing compiled
// in, emission still costs only a thread-local load and a branch until an
// OsInstance installs its tracer (OsConfig::trace_enabled).
#pragma once

#ifndef OSIRIS_TRACE_ENABLED
#define OSIRIS_TRACE_ENABLED 1
#endif

#if OSIRIS_TRACE_ENABLED

#include "trace/tracer.hpp"

#define OSIRIS_TRACE_EVENT(kind, comp, ...)                                 \
  ::osiris::trace::emit_active(::osiris::trace::EventKind::kind,            \
                               (comp)__VA_OPT__(, ) __VA_ARGS__)

#else  // OSIRIS_TRACE_ENABLED

#define OSIRIS_TRACE_EVENT(kind, comp, ...) ((void)0)

#endif  // OSIRIS_TRACE_ENABLED
