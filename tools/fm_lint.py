#!/usr/bin/env python3
"""fm_lint: repo-invariant linter for the FM serving stack.

Enforces the project invariants that neither the compiler nor the test
suite can see — the determinism contract, the lock-discipline naming
convention, and the error-handling hygiene documented in
docs/STATIC_ANALYSIS.md. Runs in CI and as a ctest (`fm_lint`); the
`--self_check` mode plants one violation per rule in a temporary tree and
fails unless every plant is caught at its exact file:line.

Rules (waive a single line with `// NOLINT(fm-<rule>)` or the line above
with `// NOLINTNEXTLINE(fm-<rule>)`; every waiver needs a rationale in the
surrounding comment):

  fm-wall-clock          No wall-clock reads (system_clock, steady_clock,
                         gettimeofday, time(), ...) in determinism-contract
                         code (src/serve, src/core, src/linalg). Time enters
                         serving only through the injectable obs::Clock seam.
  fm-randomness          No ambient randomness (rand(), random_device,
                         mt19937, ...) in determinism-contract code. All
                         noise flows through common/rng's Rng::Fork(seed,
                         position) so replay reproduces it bit-for-bit.
  fm-unordered-iter      No iteration over unordered containers in
                         determinism-contract code — iteration order is
                         hash-seed dependent. Point lookups (find/at/erase)
                         are fine.
  fm-locked-annotation   `*Locked` helper names and FM_REQUIRES(...)
                         annotations imply each other, both directions: a
                         header-declared *Locked function must carry
                         FM_REQUIRES, and an FM_REQUIRES function must be
                         named *Locked.
  fm-raw-mutex           No std::mutex / std::lock_guard / std::unique_lock /
                         std::condition_variable in src/ outside
                         common/thread_annotations.h — the fm::Mutex wrappers
                         carry the thread-safety capabilities.
  fm-discarded-status    A `(void)Call(...)` discard in src/ must carry a
                         `// discard-ok:` rationale on the same line or the
                         comment block directly above. (The compiler enforces
                         [[nodiscard]]; this rule enforces the *why*.)
  fm-observation-only    The bodies of OptionsFingerprint (src/serve/wal.cc)
                         and EncodeServiceOptions / DecodeServiceOptions
                         (src/serve/replay.cc) must never mention the
                         observation-only fields enable_metrics,
                         trace_requests, or clock — telemetry must not leak
                         into durable-state identity or replay codecs.
  fm-test-only-module    Every src/ file must be reachable from a program
                         that is not a test: a walk of `#include "..."`
                         edges from every file under bench/, examples/,
                         fuzz/ and perfbench/ (reaching src/X.h also
                         reaches src/X.cc) must visit it. A file the walk
                         misses is compiled only for tests/ and is flagged
                         at line 1.
  fm-kernel-oracle       No `kernels::Ref*` reference in src/ outside
                         src/linalg/kernels.{h,cc}. The scalar Ref* kernels
                         are the oracles tests/kernels_test.cc and the
                         micro-benchmark compare the blocked kernels with;
                         production code calls the blocked kernel only, so
                         the scalar path cannot return as a fallback.
"""

import argparse
import os
import re
import sys
import tempfile

# Directories covered by the determinism-contract rules (fm-wall-clock,
# fm-randomness, fm-unordered-iter). src/obs is deliberately absent: it OWNS
# the injectable clock seam and is kept off the response bytes by
# construction (tests/obs_test.cc proves it).
DETERMINISM_DIRS = ("src/serve", "src/core", "src/linalg")

# Root of the lock-discipline and status-hygiene rules.
SRC_DIR = "src"

# The wrapper layer itself: defines the capabilities, so it is exempt from
# fm-raw-mutex (it wraps std::mutex) and fm-locked-annotation (CondVar::Wait
# is FM_REQUIRES(mutex) by nature, not a *Locked helper).
WRAPPER_HEADER = "src/common/thread_annotations.h"

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Roots of the fm-test-only-module walk: every program that is not a test.
NON_TEST_ROOTS = ("bench", "examples", "fuzz", "perfbench")

QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# The kernel layer, the only src/ files that may name a scalar Ref* oracle.
KERNEL_FILES = ("src/linalg/kernels.h", "src/linalg/kernels.cc")
KERNEL_ORACLE_PATTERNS = [re.compile(r"\bkernels::Ref\w*")]

OBSERVATION_ONLY_FUNCTIONS = {
    "src/serve/wal.cc": ("OptionsFingerprint",),
    "src/serve/replay.cc": ("EncodeServiceOptions", "DecodeServiceOptions"),
}
OBSERVATION_ONLY_TOKENS = re.compile(
    r"\b(enable_metrics|trace_requests|clock)\b")

WALL_CLOCK_PATTERNS = [
    re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\b"),
    re.compile(r"\b(gettimeofday|clock_gettime|ftime)\b"),
    re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    re.compile(r"\b(localtime|gmtime|mktime)\b"),
]

RANDOMNESS_PATTERNS = [
    re.compile(r"(?<![\w.])s?rand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bmt19937(?:_64)?\b"),
    re.compile(r"\b(default_random_engine|minstd_rand0?|ranlux\w+)\b"),
    re.compile(r"\brandom_shuffle\b"),
]

RAW_MUTEX_PATTERNS = [
    re.compile(r"\bstd::(recursive_|timed_|shared_)?mutex\b"),
    re.compile(r"\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
    re.compile(r"\bstd::condition_variable(_any)?\b"),
    re.compile(r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"),
]

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*[&*]?\s*(\w+)")

DISCARD_CALL = re.compile(r"^\s*\(void\)\s*[A-Za-z_][\w:.>\-]*\s*\(")
DISCARD_SIZEOF = re.compile(r"^\s*\(void\)\s*sizeof\b")

NOLINT_RE = re.compile(r"NOLINT\(([^)]*)\)")
NOLINTNEXTLINE_RE = re.compile(r"NOLINTNEXTLINE\(([^)]*)\)")

# Identifiers that look like calls inside a declaration statement but are
# not the declared function.
NOT_FUNCTION_NAMES = {
    "if", "while", "for", "switch", "return", "sizeof", "static_cast",
    "const_cast", "reinterpret_cast", "decltype", "alignof", "defined",
}


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving line
    structure so line numbers survive. Good enough for a linter: raw string
    literals are treated as plain strings (none in this tree carry lint
    tokens)."""
    out = []
    i = 0
    n = len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"' or c == "'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def waived(raw_lines, lineno, rule):
    """True if raw line `lineno` (1-based) carries NOLINT(rule) or the line
    above carries NOLINTNEXTLINE(rule)."""

    def names(match):
        return [p.strip() for p in match.group(1).split(",")]

    line = raw_lines[lineno - 1]
    m = NOLINT_RE.search(line)
    if m and rule in names(m):
        return True
    if lineno >= 2:
        m = NOLINTNEXTLINE_RE.search(raw_lines[lineno - 2])
        if m and rule in names(m):
            return True
    return False


class FileUnit:
    """A source file plus its comment-stripped view and statement split."""

    def __init__(self, root, relpath):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.split("\n")

    def statements(self):
        """Yields (start_line, text) for `;`/`{`/`}`-delimited statements of
        the comment-stripped code, with preprocessor lines skipped."""
        start = 1
        buf = []
        lineno = 0
        for line in self.code_lines:
            lineno += 1
            if line.lstrip().startswith("#"):
                continue
            if not buf:
                start = lineno
            buf.append(line)
            joined = "\n".join(buf)
            while True:
                cut = None
                for delim in (";", "{", "}"):
                    pos = joined.find(delim)
                    if pos != -1 and (cut is None or pos < cut):
                        cut = pos
                if cut is None:
                    break
                stmt = joined[: cut + 1]
                if stmt.strip(" \n;{}"):
                    yield start, stmt
                joined = joined[cut + 1:]
                start = lineno - joined.count("\n")
            buf = [joined] if joined else []
        if buf and "\n".join(buf).strip():
            yield start, "\n".join(buf)


def iter_source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def scan_line_patterns(unit, patterns, rule, message, findings):
    for lineno, line in enumerate(unit.code_lines, start=1):
        for pat in patterns:
            m = pat.search(line)
            if m and not waived(unit.raw_lines, lineno, rule):
                findings.append(Finding(
                    rule, unit.relpath, lineno,
                    f"{message}: `{m.group(0).strip()}`"))
                break


def check_unordered_iteration(units, findings):
    """Collects unordered-container names declared anywhere in the
    determinism dirs, then flags range-for / begin() / end() over them."""
    names = set()
    for unit in units:
        for m in UNORDERED_DECL.finditer(unit.code):
            names.add(m.group(1))
    if not names:
        return
    alt = "|".join(sorted(re.escape(n) for n in names))
    range_for = re.compile(r"for\s*\([^)]*:\s*(?:this->)?(" + alt + r")\b")
    # begin()-family only: every iteration starts at begin, while a bare
    # `it == m.end()` is the idiomatic find() sentinel comparison.
    iter_call = re.compile(r"\b(" + alt + r")\s*\.\s*c?r?begin\s*\(")
    for unit in units:
        for lineno, line in enumerate(unit.code_lines, start=1):
            m = range_for.search(line) or iter_call.search(line)
            if m and not waived(unit.raw_lines, lineno, "fm-unordered-iter"):
                findings.append(Finding(
                    "fm-unordered-iter", unit.relpath, lineno,
                    f"iteration over unordered container `{m.group(1)}` — "
                    "order is hash-seed dependent; use point lookups or an "
                    "ordered container"))


LOCKED_DECL = re.compile(r"\b([A-Za-z_]\w*Locked)\s*\(")
REQUIRES_IN_STMT = re.compile(r"\bFM_REQUIRES\s*\(")
CALLEE = re.compile(r"\b([A-Za-z_][\w:]*)\s*\(")


def check_locked_annotation(unit, findings):
    if unit.relpath == WRAPPER_HEADER:
        return
    for start, stmt in unit.statements():
        flat = " ".join(stmt.split())
        has_requires = bool(REQUIRES_IN_STMT.search(flat))
        # Direction A (headers only — annotations live on declarations):
        # a declared *Locked function must carry FM_REQUIRES.
        if unit.relpath.endswith((".h", ".hpp")):
            m = LOCKED_DECL.search(flat)
            if (m and not has_requires
                    and "return" not in flat.split(m.group(1))[0]
                    and "=" not in flat.split(m.group(1))[0]
                    and not re.search(r"[.>]\s*$",
                                      flat.split(m.group(1))[0].rstrip())):
                if not waived(unit.raw_lines, start, "fm-locked-annotation"):
                    findings.append(Finding(
                        "fm-locked-annotation", unit.relpath, start,
                        f"`{m.group(1)}` is named *Locked but declares no "
                        "FM_REQUIRES(...) capability"))
                continue
        # Direction B (everywhere): an FM_REQUIRES function must be *Locked.
        if has_requires:
            declared = None
            for cm in CALLEE.finditer(flat):
                name = cm.group(1)
                base = name.split("::")[-1]
                if base.startswith("FM_") or base in NOT_FUNCTION_NAMES:
                    continue
                declared = base
                break
            if declared and not declared.endswith("Locked"):
                if not waived(unit.raw_lines, start, "fm-locked-annotation"):
                    findings.append(Finding(
                        "fm-locked-annotation", unit.relpath, start,
                        f"`{declared}` carries FM_REQUIRES(...) but is not "
                        "named *Locked"))


def check_discarded_status(unit, findings):
    for lineno, line in enumerate(unit.code_lines, start=1):
        if not DISCARD_CALL.search(line) or DISCARD_SIZEOF.search(line):
            continue
        raw = unit.raw_lines[lineno - 1]
        ok = "discard-ok:" in raw
        probe = lineno - 2  # 0-based index of the line above
        while not ok and probe >= 0:
            above = unit.raw_lines[probe].strip()
            if not above.startswith("//"):
                break
            if "discard-ok:" in above:
                ok = True
            probe -= 1
        if not ok and not waived(unit.raw_lines, lineno,
                                 "fm-discarded-status"):
            findings.append(Finding(
                "fm-discarded-status", unit.relpath, lineno,
                "`(void)` discard of a call result without a "
                "`// discard-ok:` rationale"))


def function_body_span(code, func_name):
    """Returns (start_line, end_line, body) of `func_name`'s brace-matched
    definition in comment-stripped `code`, or None."""
    m = re.search(r"\b" + re.escape(func_name) + r"\s*\(", code)
    if not m:
        return None
    brace = code.find("{", m.end())
    if brace == -1:
        return None
    depth = 0
    for i in range(brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                start_line = code.count("\n", 0, brace) + 1
                end_line = code.count("\n", 0, i) + 1
                return start_line, end_line, code[brace: i + 1]
    return None


def check_observation_only(root, findings):
    for relpath, funcs in OBSERVATION_ONLY_FUNCTIONS.items():
        full = os.path.join(root, relpath)
        if not os.path.exists(full):
            continue
        unit = FileUnit(root, relpath)
        for func in funcs:
            span = function_body_span(unit.code, func)
            if span is None:
                findings.append(Finding(
                    "fm-observation-only", relpath, 1,
                    f"expected function `{func}` not found — if it moved, "
                    "update tools/fm_lint.py OBSERVATION_ONLY_FUNCTIONS"))
                continue
            start_line, _, body = span
            for offset, line in enumerate(body.split("\n")):
                m = OBSERVATION_ONLY_TOKENS.search(line)
                lineno = start_line + offset
                if m and not waived(unit.raw_lines, lineno,
                                    "fm-observation-only"):
                    findings.append(Finding(
                        "fm-observation-only", relpath, lineno,
                        f"observation-only field `{m.group(1)}` inside "
                        f"`{func}` — telemetry must not enter durable-state "
                        "identity or replay codecs"))


def resolve_include(root, includer, name):
    """The repo file a quoted `#include "name"` in `includer` names: the
    includer's own directory first, then the src/ include root. None for
    anything else (system and third-party headers)."""
    for base in (os.path.dirname(includer), SRC_DIR):
        candidate = os.path.normpath(os.path.join(base, name))
        if os.path.isfile(os.path.join(root, candidate)):
            return candidate
    return None


def check_test_only_modules(root, findings):
    pending = list(iter_source_files(root, NON_TEST_ROOTS))
    reached = set(pending)
    while pending:
        relpath = pending.pop()
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            names = QUOTED_INCLUDE.findall(f.read())
        for name in names:
            header = resolve_include(root, relpath, name)
            if header is None:
                continue
            # A header pulls in its translation unit: src/X.h -> src/X.cc.
            source = os.path.splitext(header)[0] + ".cc"
            for target in (header, source):
                if (target not in reached
                        and os.path.isfile(os.path.join(root, target))):
                    reached.add(target)
                    pending.append(target)
    for relpath in iter_source_files(root, (SRC_DIR,)):
        if relpath in reached:
            continue
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            raw_lines = f.read().split("\n")
        if not waived(raw_lines, 1, "fm-test-only-module"):
            findings.append(Finding(
                "fm-test-only-module", relpath, 1,
                "no #include path from bench/, examples/, fuzz/ or "
                "perfbench/ reaches this file, so only tests/ use it — "
                "delete it or give it a caller outside tests/"))


def run_lint(root):
    findings = []

    det_units = [FileUnit(root, p)
                 for p in iter_source_files(root, DETERMINISM_DIRS)]
    for unit in det_units:
        scan_line_patterns(
            unit, WALL_CLOCK_PATTERNS, "fm-wall-clock",
            "wall-clock read in determinism-contract code (inject time via "
            "obs::Clock)", findings)
        scan_line_patterns(
            unit, RANDOMNESS_PATTERNS, "fm-randomness",
            "ambient randomness in determinism-contract code (use "
            "common/rng Rng::Fork)", findings)
    check_unordered_iteration(det_units, findings)

    for relpath in iter_source_files(root, (SRC_DIR,)):
        unit = FileUnit(root, relpath)
        if relpath != WRAPPER_HEADER:
            scan_line_patterns(
                unit, RAW_MUTEX_PATTERNS, "fm-raw-mutex",
                "raw standard-library lock primitive (use fm::Mutex / "
                "fm::MutexLock / fm::CondVar from "
                "common/thread_annotations.h)", findings)
        if relpath not in KERNEL_FILES:
            scan_line_patterns(
                unit, KERNEL_ORACLE_PATTERNS, "fm-kernel-oracle",
                "scalar Ref* oracle outside the kernel layer (production "
                "code calls the blocked kernel; Ref* is for tests and the "
                "micro-benchmark)", findings)
        check_locked_annotation(unit, findings)
        check_discarded_status(unit, findings)

    check_observation_only(root, findings)
    check_test_only_modules(root, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------------------
# --self_check: plant one violation per rule in a temp tree and require the
# linter to catch every one at its exact file:line.

SELF_CHECK_PLANTS = [
    # (relpath, file content, rule, 1-based line of the planted violation)
    ("src/serve/planted_wall_clock.cc",
     "#include <chrono>\n"
     "long Now() {\n"
     "  return std::chrono::system_clock::now().time_since_epoch().count();\n"
     "}\n",
     "fm-wall-clock", 3),
    ("src/core/planted_randomness.cc",
     "#include <cstdlib>\n"
     "int Noise() {\n"
     "  return rand();\n"
     "}\n",
     "fm-randomness", 3),
    ("src/linalg/planted_unordered_iter.cc",
     "#include <unordered_map>\n"
     "int Sum(const std::unordered_map<int, int>& weights_by_id) {\n"
     "  int total = 0;\n"
     "  for (const auto& entry : weights_by_id) total += entry.second;\n"
     "  return total;\n"
     "}\n",
     "fm-unordered-iter", 4),
    ("src/serve/planted_locked_missing_requires.h",
     "#ifndef PLANTED_A_H_\n"
     "#define PLANTED_A_H_\n"
     "class Planted {\n"
     "  void MutateStateLocked();\n"
     "};\n"
     "#endif\n",
     "fm-locked-annotation", 4),
    ("src/serve/planted_requires_wrong_name.h",
     "#ifndef PLANTED_B_H_\n"
     "#define PLANTED_B_H_\n"
     "#include \"common/thread_annotations.h\"\n"
     "class PlantedB {\n"
     "  void MutateState() FM_REQUIRES(mutex_);\n"
     "  fm::Mutex mutex_;\n"
     "};\n"
     "#endif\n",
     "fm-locked-annotation", 5),
    ("src/serve/planted_raw_mutex.cc",
     "std::mutex planted_mutex;\n",
     "fm-raw-mutex", 1),
    ("src/common/planted_discard.cc",
     "#include \"common/status.h\"\n"
     "fm::Status DoThing();\n"
     "void Caller() {\n"
     "  (void)DoThing();\n"
     "}\n",
     "fm-discarded-status", 4),
    ("src/serve/wal.cc",
     "struct ServiceOptions { unsigned dim; bool enable_metrics; };\n"
     "unsigned long OptionsFingerprint(const ServiceOptions& options) {\n"
     "  unsigned long hash = options.dim;\n"
     "  hash ^= options.enable_metrics ? 1u : 0u;\n"
     "  return hash;\n"
     "}\n",
     "fm-observation-only", 4),
    ("src/core/planted_kernel_oracle.cc",
     "void Accumulate(double* sum, double* comp, const double* x) {\n"
     "  fm::linalg::kernels::RefCompensatedTupleUpdate(sum, comp, x, 1, 1.0,\n"
     "                                                 0.0, 0.0);\n"
     "}\n",
     "fm-kernel-oracle", 2),
    ("src/dp/planted_test_only.h",
     "#ifndef PLANTED_TEST_ONLY_H_\n"
     "#define PLANTED_TEST_ONLY_H_\n"
     "int ReachedOnlyFromTests();\n"
     "#endif\n",
     "fm-test-only-module", 1),
]

# Clean files for the fm-test-only-module walk: a non-test program that
# includes every planted file except the test-only one, and a header/source
# pair it reaches through the header alone.
SELF_CHECK_REACHED_PAIR = {
    "src/exec/planted_pair.h": "int Paired();\n",
    "src/exec/planted_pair.cc": "#include \"exec/planted_pair.h\"\n"
                                "int Paired() { return 1; }\n",
}


def self_check():
    ok = True
    # Clean companions of the plants. The planted wal.cc's replay.cc sibling
    # is absent; silence the codec-function probe with minimal clean codecs.
    clean = dict(SELF_CHECK_REACHED_PAIR)
    clean["src/serve/replay.cc"] = (
        "struct ServiceOptions { unsigned dim; };\n"
        "void EncodeServiceOptions(char*, const ServiceOptions&) {\n"
        "}\n"
        "int DecodeServiceOptions(const char*, ServiceOptions*) {\n"
        "  return 0;\n"
        "}\n")
    reached = [relpath for relpath, _, rule, _ in SELF_CHECK_PLANTS
               if rule != "fm-test-only-module"]
    reached += ["src/serve/replay.cc", "src/exec/planted_pair.h"]
    clean["examples/planted_main.cc"] = "".join(
        f'#include "{os.path.relpath(relpath, SRC_DIR)}"\n'
        for relpath in reached)
    files = [(relpath, content) for relpath, content, _, _ in
             SELF_CHECK_PLANTS] + list(clean.items())
    with tempfile.TemporaryDirectory(prefix="fm_lint_self_check_") as tmp:
        for relpath, content in files:
            full = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(content)
        findings = run_lint(tmp)
        found = {(f.rule, f.path, f.line) for f in findings}
        for relpath, _, rule, line in SELF_CHECK_PLANTS:
            key = (rule, relpath, line)
            if key in found:
                print(f"self_check: caught {rule} at {relpath}:{line}")
            else:
                ok = False
                print(f"self_check: MISSED planted {rule} at "
                      f"{relpath}:{line}", file=sys.stderr)
        extras = [f for f in findings
                  if (f.rule, f.path, f.line) not in
                  {(r, p, l) for p, _, r, l in SELF_CHECK_PLANTS}]
        for f in extras:
            ok = False
            print(f"self_check: UNEXPECTED finding {f}", file=sys.stderr)
    if ok:
        print(f"self_check: all {len(SELF_CHECK_PLANTS)} planted violations "
              "caught, no false positives")
        return 0
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: parent of this script's directory)")
    parser.add_argument(
        "--self_check", action="store_true",
        help="plant one violation per rule in a temp tree and verify every "
             "one is caught at its exact file:line")
    args = parser.parse_args()

    if args.self_check:
        return self_check()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = run_lint(root)
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"fm_lint: {len(findings)} violation(s). See "
              "docs/STATIC_ANALYSIS.md for rule rationale and the NOLINT "
              "waiver mechanism.", file=sys.stderr)
        return 1
    print("fm_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
