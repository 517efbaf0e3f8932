#!/usr/bin/env python3
"""Repo-convention lint for the pnr codebase (fast first-stage CI job).

Checks every C++ file under src/, tests/, bench/ and examples/ for the
conventions the compiler cannot enforce:

  naked-assert     no <cassert>/assert(): invariants use PNR_ASSERT (compiled
                   out in Release) or PNR_REQUIRE (always on) so contract
                   failures print a location and the check level is uniform
  banned-rand      no std::rand/srand/random_shuffle: all randomness flows
                   through util::Rng so runs stay seeded and reproducible
  prof-name        PNR_PROF_SPAN / prof::count / prof::gauge_max names follow
                   the dotted lower_snake scheme ("kl.refine", "check.audits")
                   documented in docs/OBSERVABILITY.md
  include-hygiene  no parent-relative includes (#include "../..."), project
                   headers included with quotes, system headers with angle
                   brackets, and every header starts with #pragma once
  raw-thread       no std::thread/std::jthread/std::async outside src/exec/
                   (the deterministic pool runtime) and src/parallel/ (the
                   in-process MPI stand-in): shared-memory parallelism flows
                   through pnr::exec so results stay thread-count-invariant
  raw-socket       no socket/poll/fd syscalls (::socket, ::bind, ::poll,
                   ::send, <sys/socket.h>, ...) outside src/svc/: all wire
                   I/O flows through svc::Server / svc::Client so framing,
                   limits and error handling stay in one audited place
  mesh-dispatch    no is_same_v<..., TriMesh|TetMesh|SimplexMesh<D>> and
                   no type test on the workloads (TransientRun*,
                   CornerSeries*) anywhere: code written once for both
                   dimensions branches on Mesh::kDim (Run::Mesh::kDim), the
                   vocabulary of mesh/simplex_mesh.hpp

The path rules (raw-thread, raw-socket) judge a file by its path from the
repo root; a file outside the tree is judged by its path from its last
src/ component, so a self-test can seed one under .../src/exec/.

Exit status is the number of violating files (0 = clean). Pass file paths to
lint a subset; default lints the whole tree.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "bench", "examples")
EXTS = {".hpp", ".cpp"}

# The dotted lower_snake naming scheme for spans/counters/gauges.
PROF_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
PROF_USE = re.compile(
    r'(?:PNR_PROF_SPAN|prof::count|prof::gauge_max)\s*\(\s*"([^"]*)"')
NAKED_ASSERT = re.compile(r'(?<![A-Za-z0-9_])assert\s*\(')
CASSERT = re.compile(r'#\s*include\s*<c?assert(?:\.h)?>')
BANNED_RAND = re.compile(
    r'(?<![A-Za-z0-9_])(?:std::)?(?:rand|srand|random_shuffle)\s*\(')
PARENT_INCLUDE = re.compile(r'#\s*include\s*"\.\./')
# Project include roots are whatever directories exist under src/ — derived,
# not hardcoded, so a new subsystem (exec/, svc/, ...) is covered the day it
# appears instead of silently slipping through a stale list.
SRC_SUBDIRS = sorted(p.name for p in (ROOT / "src").iterdir() if p.is_dir())
ANGLED_PROJECT = re.compile(
    r'#\s*include\s*<(?:' + "|".join(map(re.escape, SRC_SUBDIRS)) + r')/')
USING_NAMESPACE_STD = re.compile(r'using\s+namespace\s+std\s*;')
RAW_THREAD = re.compile(r'(?<![A-Za-z0-9_])std::(?:thread|jthread|async)\b')
# Only these subtrees may spawn raw threads: the pool implementation itself
# and the in-process message-passing simulator that models MPI ranks.
RAW_THREAD_ALLOWED = ("src/exec/", "src/parallel/")
# Global-scope socket/poll/fd syscalls and their headers. The `(?<!\w)::`
# anchor matches `::recv(...)` but not member calls like `Comm::recv(...)`.
RAW_SOCKET = re.compile(
    r'(?:#\s*include\s*<(?:sys/socket\.h|sys/un\.h|poll\.h|fcntl\.h|'
    r'netinet/[^>]*)>'
    r'|(?<![A-Za-z0-9_])::(?:socket|socketpair|bind|listen|accept|connect|'
    r'poll|recv|recvmsg|send|sendmsg|fcntl)\s*\()')
RAW_SOCKET_ALLOWED = ("src/svc/",)
# A type test against a concrete mesh or workload type (std::is_same /
# is_same_v / std::same_as naming TriMesh, TetMesh, SimplexMesh or one of
# the pared::TransientRun* / CornerSeries* workloads). The mesh itself needs
# none either, so no file is exempt.
MESH_DISPATCH = re.compile(
    r'(?<![A-Za-z0-9_])(?:is_same(?:_v)?|same_as)\s*<[^;]*'
    r'(?<![A-Za-z0-9_])(?:TriMesh|TetMesh|SimplexMesh|TransientRun\w*|'
    r'CornerSeries\w*)\b')


def strip_comments_and_strings(line: str, in_block: bool) -> tuple[str, bool]:
    """Blank out string literals, // and /* */ comments (line-local
    approximation: block comments are tracked across lines, strings are not).
    """
    out = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        c = line[i]
        if in_block:
            if line.startswith("*/", i):
                in_block = False
                i += 2
            else:
                i += 1
            continue
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in "\"'":
            in_string = c
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def scope_of(path: pathlib.Path) -> str:
    """The path the path rules judge: repo-relative in the tree, else the
    suffix from the last `src` component (a self-test's seeded file)."""
    try:
        return path.relative_to(ROOT).as_posix()
    except ValueError:
        parts = path.parts
        if "src" not in parts:
            return path.as_posix()
        last = len(parts) - 1 - parts[::-1].index("src")
        return "/".join(parts[last:])


def lint_file(path: pathlib.Path) -> list[str]:
    try:
        rel = path.relative_to(ROOT)
    except ValueError:
        rel = path  # out-of-tree file (self-test snippets): report as given
    scope = scope_of(path)
    problems: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{rel}:1: encoding: not valid UTF-8"]

    lines = text.splitlines()
    in_block = False
    saw_pragma_once = False
    saw_directive = False
    for lineno, raw in enumerate(lines, start=1):
        code, in_block = strip_comments_and_strings(raw, in_block)

        if path.suffix == ".hpp" and not saw_directive:
            stripped = code.strip()
            if stripped.startswith("#"):
                saw_directive = True
                saw_pragma_once = re.match(r"#\s*pragma\s+once", stripped) is not None

        if CASSERT.search(code) or NAKED_ASSERT.search(code):
            problems.append(
                f"{rel}:{lineno}: naked-assert: use PNR_ASSERT / PNR_REQUIRE "
                "from util/assert.hpp")
        if BANNED_RAND.search(code):
            problems.append(
                f"{rel}:{lineno}: banned-rand: use util::Rng for seeded, "
                "reproducible randomness")
        # The quoted path is a string literal, which the stripper blanks —
        # match the raw line, gated on the stripped line really being an
        # include directive (not a commented-out one).
        if re.search(r"#\s*include", code) and PARENT_INCLUDE.search(raw):
            problems.append(
                f"{rel}:{lineno}: include-hygiene: no parent-relative "
                "includes; include from the src root")
        if ANGLED_PROJECT.search(code):
            problems.append(
                f"{rel}:{lineno}: include-hygiene: project headers are "
                'included with quotes ("graph/csr.hpp"), not angle brackets')
        if USING_NAMESPACE_STD.search(code):
            problems.append(
                f"{rel}:{lineno}: using-namespace-std: qualify std:: names")
        if (RAW_THREAD.search(code)
                and not scope.startswith(RAW_THREAD_ALLOWED)):
            problems.append(
                f"{rel}:{lineno}: raw-thread: std::thread/jthread/async is "
                "reserved for src/exec/ and src/parallel/; run on the "
                "pnr::exec pool to keep results deterministic")
        if (RAW_SOCKET.search(code)
                and not scope.startswith(RAW_SOCKET_ALLOWED)):
            problems.append(
                f"{rel}:{lineno}: raw-socket: socket/poll/fd syscalls are "
                "reserved for src/svc/; go through svc::Server and "
                "svc::Client (or the loopback helpers) instead")

        if MESH_DISPATCH.search(code):
            problems.append(
                f"{rel}:{lineno}: mesh-dispatch: do not test for a mesh "
                "or workload type (TriMesh/TetMesh/SimplexMesh, "
                "TransientRun*/CornerSeries*); branch on Mesh::kDim so the "
                "code stays written once for both dimensions")

        # Prof names live inside string literals, so match the raw line.
        for m in PROF_USE.finditer(raw):
            name = m.group(1)
            if not PROF_NAME.match(name):
                problems.append(
                    f"{rel}:{lineno}: prof-name: '{name}' does not match the "
                    "dotted lower_snake scheme (e.g. kl.refine)")

    if path.suffix == ".hpp" and not saw_pragma_once:
        problems.append(
            f"{rel}:1: include-hygiene: header must start with #pragma once")
    return problems


def main(argv: list[str]) -> int:
    if argv:
        files = [pathlib.Path(a).resolve() for a in argv]
    else:
        files = sorted(
            p for d in DIRS for p in (ROOT / d).rglob("*") if p.suffix in EXTS)
    all_problems: list[str] = []
    bad_files = 0
    for path in files:
        problems = lint_file(path)
        if problems:
            bad_files += 1
            all_problems.extend(problems)
    for p in all_problems:
        print(p)
    print(f"lint: {len(files)} files, {len(all_problems)} problem(s) in "
          f"{bad_files} file(s)")
    return 1 if bad_files else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
