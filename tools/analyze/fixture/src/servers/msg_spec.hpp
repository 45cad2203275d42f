// Fixture spec table: test data for osiris-analyze's spec cross-check —
// this file is never compiled.
//
//   FX_PING  — healthy row: pm registers it via on().
//   FX_DRIFT — no handler registration anywhere (spec-missing-handler).
//   FX_NOTE  — owned by vm and declared NOTE, but pm registers it via on()
//              (spec-owner-drift + handler-kind-drift). vm itself has no
//              scanned registrations, so FX_NOTE must NOT also produce a
//              spec-missing-handler finding.
//   FX_BLOCK / FX_WIDEN / FX_TRACE — ds rows whose handlers (ds.cpp) seed
//              the Pass 4 effects and determinism detectors.
//   FX_POKE  — client-delivered SM request: ds.cpp's outbound site, closing
//              FX_WIDEN's window under the enhanced policy.
#pragma once

#define OSIRIS_MSG_SPEC(X)                                                    \
  X(FX_PING,  0x010, pm, NSM, REQ,  0, NOTEXT, "healthy row")                 \
  X(FX_DRIFT, 0x011, pm, SM,  REQ,  1, NOTEXT, "row without a handler")       \
  X(FX_NOTE,  0x012, vm, SM,  NOTE, 0, NOTEXT, "registered by pm via on()")   \
  X(FX_BLOCK, 0x013, ds, NSM, REQ,  0, NOTEXT, "blocking handler seed")       \
  X(FX_WIDEN, 0x014, ds, SM,  REQ,  0, NOTEXT, "mutate-after-send seed")      \
  X(FX_TRACE, 0x015, ds, NSM, REQ,  0, NOTEXT, "determinism-lint seed")       \
  X(FX_POKE,  0x016, client, SM, REQ,  0, NOTEXT, "outbound poke from ds")
