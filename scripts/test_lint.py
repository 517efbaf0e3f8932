#!/usr/bin/env python3
"""Self-checks for scripts/lint.py: every rule must fire on a seeded
violation and stay quiet on the conforming version. The angled-include
cases pin the regression where the subsystem list was hardcoded and new
directories (exec/, svc/) silently slipped through — the list is now
derived from src/, so these cases cover subsystems from every era.

    python3 scripts/test_lint.py
"""

import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint.py")

CASES = [
    # (name, filename, source, expected rule tag or None)
    ("angled include of an original subsystem fires", "a.cpp",
     '#include <graph/csr.hpp>\n', "include-hygiene"),
    ("angled include of exec/ fires (was missed by the hardcoded list)",
     "b.cpp", '#include <exec/pool.hpp>\n', "include-hygiene"),
    ("angled include of svc/ fires (was missed by the hardcoded list)",
     "c.cpp", '#include <svc/wire.hpp>\n', "include-hygiene"),
    ("quoted project include is clean", "d.cpp",
     '#include "exec/pool.hpp"\n', None),
    ("angled system include is clean", "e.cpp",
     '#include <vector>\n', None),
    ("parent-relative include fires", "f.cpp",
     '#include "../util/rng.hpp"\n', "include-hygiene"),
    ("naked assert fires", "g.cpp",
     '#include <cassert>\nvoid f(int x) { assert(x > 0); }\n',
     "naked-assert"),
    ("PNR_ASSERT is clean", "h.cpp",
     'void f(int x) { PNR_ASSERT(x > 0); }\n', None),
    ("std::rand fires", "i.cpp",
     'int f() { return std::rand(); }\n', "banned-rand"),
    ("bad prof name fires", "j.cpp",
     'void f() { prof::count("BadName.X"); }\n', "prof-name"),
    ("dotted lower_snake prof name is clean", "k.cpp",
     'void f() { prof::count("kl.refine"); }\n', None),
    ("header without pragma once fires", "l.hpp",
     'int f();\n', "include-hygiene"),
    ("header with pragma once is clean", "m.hpp",
     '#pragma once\nint f();\n', None),
    ("using namespace std fires", "n.cpp",
     'using namespace std;\n', "using-namespace-std"),
    ("std::thread outside src/exec and src/parallel fires", "o.cpp",
     '#include <thread>\nvoid f() { std::thread t; }\n', "raw-thread"),
    ("raw socket syscall outside src/svc fires", "p.cpp",
     'int f() { return ::socket(1, 2, 3); }\n', "raw-socket"),
    ("is_same_v against a concrete mesh fires", "r.cpp",
     'template <typename M> int f() {\n'
     '  if constexpr (std::is_same_v<M, mesh::TetMesh>) return 3;\n'
     '  return 2;\n}\n', "mesh-dispatch"),
    ("is_same_v against a SimplexMesh instantiation fires", "t.cpp",
     'template <typename M> int f() {\n'
     '  if constexpr (std::is_same_v<M, mesh::SimplexMesh<2>>) return 2;\n'
     '  return 3;\n}\n', "mesh-dispatch"),
    ("is_same_v against a workload type fires", "u.cpp",
     'template <typename R> int f() {\n'
     '  if constexpr (std::is_same_v<R, pared::TransientRun>) return 2;\n'
     '  return 3;\n}\n', "mesh-dispatch"),
    ("is_same_v against a workload template fires", "v.cpp",
     'template <typename R> int f() {\n'
     '  return std::is_same_v<R, CornerSeriesT<mesh::TetMesh>>;\n}\n',
     "mesh-dispatch"),
    # Path exemptions: the seeded file sits under a src/ directory of the
    # temp dir, which lint judges like the same path in the tree.
    ("std::thread under src/exec/ is allowed", "src/exec/w.cpp",
     '#include <thread>\nvoid f() { std::thread t; }\n', None),
    ("std::thread under src/parallel/ is allowed", "src/parallel/w.cpp",
     '#include <thread>\nvoid f() { std::thread t; }\n', None),
    ("std::thread under src/mesh/ fires", "src/mesh/w.cpp",
     '#include <thread>\nvoid f() { std::thread t; }\n', "raw-thread"),
    ("std::thread under src/svc/ fires", "src/svc/w.cpp",
     '#include <thread>\nvoid f() { std::thread t; }\n', "raw-thread"),
    ("raw socket under src/svc/ is allowed", "src/svc/x.cpp",
     'int f() { return ::socket(1, 2, 3); }\n', None),
    ("raw socket under src/fed/ fires", "src/fed/x.cpp",
     'int f() { return ::socket(1, 2, 3); }\n', "raw-socket"),
    ("raw socket under a nested src/exec/ fires", "src/svc/src/exec/x.cpp",
     'int f() { return ::socket(1, 2, 3); }\n', "raw-socket"),
    ("branching on Mesh::kDim is clean", "s.cpp",
     'template <typename M> int f() {\n'
     '  if constexpr (M::kDim == 3) return 3;\n'
     '  return 2;\n}\n', None),
    ("commented-out violation is clean", "q.cpp",
     '// assert(x); std::rand(); #include <exec/pool.hpp>\nint f();\n',
     None),
]


def run_lint(filename: str, source: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, filename)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(source)
        return subprocess.run([sys.executable, SCRIPT, path],
                              capture_output=True, text=True)


def check(name, ok, detail=""):
    if not ok:
        print(f"FAIL: {name}\n{detail}")
        return 1
    print(f"ok: {name}")
    return 0


def main():
    failures = 0
    for name, filename, source, rule in CASES:
        r = run_lint(filename, source)
        if rule is None:
            failures += check(name, r.returncode == 0,
                              r.stdout + r.stderr)
        else:
            failures += check(name, r.returncode == 1 and rule in r.stdout,
                              r.stdout + r.stderr)

    # The checked-in tree must stay clean.
    r = subprocess.run([sys.executable, SCRIPT], capture_output=True,
                       text=True)
    failures += check("live tree is clean", r.returncode == 0,
                      r.stdout + r.stderr)

    if failures:
        print(f"{failures} lint check(s) failed")
        return 1
    print("all lint checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
