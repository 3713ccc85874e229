#!/usr/bin/env python3
"""emcc-lint: determinism, invariant & concurrency checks for the EMCC tree.

The simulator's contract is bit-identical results for identical seeds
(PropertyFault.IdenticalSeedsGiveIdenticalRuns and the determinism
smoke test both depend on it), and the campaign engine adds a threaded
worker pool whose locking discipline is checked statically (clang
-Wthread-safety) and dynamically (TSan). Most violations of either
contract come from a handful of well-known C++ constructs, all cheap
to catch with a tokenizer-level scan:

  rand            std::rand / srand / drand48: unseeded or global-state
                  RNGs. Use common/rng.hh (seeded xoshiro256**).
  random-device   std::random_device: draws hardware entropy, different
                  every run.
  wall-clock      system_clock / steady_clock / time() / gettimeofday /
                  clock(): host-clock time in simulation logic breaks
                  replay. Pure host-side profiling must be concentrated
                  in a file annotated with allow-file (src/obs/profile.hh
                  is the one such file).
  unordered-iter  Range-for over a std::unordered_map/unordered_set
                  declared in the same file: iteration order depends on
                  the allocator and hash seed, so anything it feeds
                  (stats, rendered diagnostics, event scheduling) can
                  differ between runs. Sort the keys first, or annotate
                  the loop with `emcc-lint: allow(unordered-iter)` when
                  the body is genuinely order-independent.
  raw-new         Raw new/delete: ownership should go through
                  std::unique_ptr / containers (leak-check layer relies
                  on it).
  exit            std::exit in library code: leaf modules must throw
                  (common/error.hh) so embedders and tests can recover;
                  only the CLI drivers under tools/ may exit.
  pragma-once     Every header must start its preprocessing life with
                  #pragma once (or a classic include guard).
  naked-u64       Public header declares a function parameter of raw
                  uint64_t whose name says it is a time or an address
                  (addr/tick/when/...). Use the strong Tick/Addr types
                  from common/types.hh.
  std-function    std::function inside the simulation kernel (src/sim):
                  it heap-allocates per stored callback, which is
                  exactly what the allocation-free event kernel exists
                  to avoid. Use InlineCallable (sim/inline_callable.hh)
                  or a pre-bound intrusive event. Setup-time registries
                  (watchdog diagnostics) and the preserved legacy kernel
                  carry allow()/allow-file() escapes.

  callback-capture  A lambda passed to schedule / scheduleIn / post /
                  postIn (the InlineCallable storage path), or to
                  SecureSystem::runAt (posted in detailed mode, inline
                  only while fast-forwarding), captures by reference.
                  The event fires after the enclosing scope has
                  returned, so `[&]`/`[&x]` captures dangle.
                  Capture by value; capturing `this` is fine by repo
                  convention (Components outlive the Simulator that
                  dispatches their events).
  naked-lock      Raw std::mutex / lock_guard / condition_variable (or
                  a manual .lock()/.unlock() pair) outside
                  common/sync.hh. std sync types are invisible to
                  clang's thread-safety analysis; use sync::Mutex /
                  sync::MutexLock / sync::CondVar so EMCC_GUARDED_BY
                  annotations are actually checked.
  detached-thread .detach() on a thread: a detached thread outlives
                  shutdown, races static destruction, and TSan cannot
                  prove anything about its lifetime. Join it (the
                  campaign engine joins every worker, even on drain).
  atomic-rmw      x.store(x.load() op ...): a compound update written
                  as two independent atomic accesses is not atomic —
                  increments are lost under contention. Use fetch_add /
                  fetch_sub / exchange / compare_exchange.
  res-transition  A file that drives ResourceMonitor transitions one
                  way — busy() with no idle() anywhere in the file, or
                  enqueue() with no dequeue() — leaves the resource
                  saturated (or its queue integral growing) forever
                  after the first event, which silently corrupts every
                  res.* utilization stat. Emit both sides of the pair,
                  or use the self-closing interval API (service()).
                  Only files mentioning resmon are checked.

The scanner is tokenizer-backed: a whole-file state machine blanks
comments and string/char-literal contents (including raw strings and
digit separators) before any rule pattern runs, preserving line/column
positions, and tracks brace depth and parenthesis nesting so rules can
reason about scope and full call expressions that span lines.

Any rule can be suppressed for one line with a trailing or preceding
comment `emcc-lint: allow(<rule>)`, or for an entire file with a
comment `emcc-lint: allow-file(<rule>)` anywhere in it (intended for
files whose whole purpose is the exception, e.g. the host profiling
header or the annotated lock wrappers). `--fix-hints` prints the exact
suppression comment under each finding.

Usage:
  emcc_lint.py [--root DIR]     lint DIR (default: repo root); exit 1
                                on findings
  emcc_lint.py --fix-hints      same, printing the allow() line that
                                would suppress each finding
  emcc_lint.py --self-test      plant one violation of each rule in a
                                temp tree and check each is caught;
                                exit 1 on any miss
"""

import argparse
import bisect
import os
import re
import sys
import tempfile

RULES = [
    "rand",
    "random-device",
    "wall-clock",
    "unordered-iter",
    "raw-new",
    "exit",
    "pragma-once",
    "naked-u64",
    "std-function",
    "callback-capture",
    "naked-lock",
    "detached-thread",
    "atomic-rmw",
    "res-transition",
]

# Directories scanned relative to the root. tools/ is deliberately held
# to the same standard except for the `exit` rule (a CLI may exit).
SCAN_DIRS = ["src", "tests", "bench", "tools", "examples"]
EXIT_EXEMPT_DIRS = ["tools", "examples"]

SOURCE_EXTS = (".cc", ".cpp", ".hh", ".hpp", ".h")
HEADER_EXTS = (".hh", ".hpp", ".h")

ALLOW_RE = re.compile(r"emcc-lint:\s*allow\(([a-z0-9-]+)\)")
ALLOW_FILE_RE = re.compile(r"emcc-lint:\s*allow-file\(([a-z0-9-]+)\)")

RAND_RE = re.compile(r"\b(?:std::)?(?:s?rand|drand48|lrand48|random)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd::random_device\b")
WALL_CLOCK_RE = re.compile(
    r"\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b|"
    r"\bgettimeofday\s*\(|\bstd::time\s*\(|"
    r"(?<![_\w])time\s*\(\s*(?:NULL|nullptr|0)\s*\)|(?<![_\w:])clock\s*\(\s*\)")
NEW_RE = re.compile(r"(?<![_\w:.])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![_\w:.])delete(?:\[\])?\s+[A-Za-z_*(]|"
                       r"(?<![_\w:.])delete\[\]")
EXIT_RE = re.compile(r"\bstd::exit\s*\(|(?<![_\w:.])exit\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:)]*:\s*(?:\w+\.|\w+->)?(\w+)\s*\)")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
# uint64_t parameter whose NAME marks it as a time or an address.
NAKED_U64_RE = re.compile(
    r"\b(?:std::)?uint64_t\s+(\w*(?:addr|Addr|vaddr|paddr|tick|Tick|"
    r"time|Time|when|When|deadline|Deadline)\w*)\s*[,)=]")

# ---- concurrency rules
# Deferred-callback sinks: every path that stores a closure past the
# caller's scope (Simulator/EventQueue schedule + the fire-and-forget
# post variants; all of them land in an InlineCallable event slot), and
# SecureSystem::runAt, which posts its closure in detailed mode.
SINK_RE = re.compile(r"\b(?:schedule|scheduleIn|post|postIn|runAt)\s*\(")
# A lambda introducer: capture list followed by params/body/specifier.
LAMBDA_RE = re.compile(
    r"\[([^\[\]]*)\]\s*(?=\(|\{|mutable\b|noexcept\b|->)")
NAKED_LOCK_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
MANUAL_LOCK_RE = re.compile(r"(?:\.|->)\s*(?:lock|unlock)\s*\(\s*\)")
DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")
# x.store( ... x.load( ... )  — possibly spanning lines within one
# statement ([^;] crosses newlines; strings are already blanked).
ATOMIC_RMW_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)(?:\.|->)\s*store\s*\("
    r"[^;]*?\1(?:\.|->)\s*load\s*\(")
# ResourceMonitor transition calls (member-call form; the method
# *definitions* in obs/resmon.cc use :: qualification and don't match).
RES_TRANSITION_RES = {
    name: re.compile(r"(?:\.|->)\s*" + name + r"\s*\(")
    for name in ("busy", "idle", "enqueue", "dequeue")
}


class Finding:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


class Tokenizer:
    """Whole-file lexical pass producing a *code view* of a C++ source:
    the text with comment bodies and string/char-literal contents
    blanked to spaces, quotes and newlines kept, so every byte offset,
    column and line number still matches the original.

    Handles the cases a per-line regex cannot: block comments spanning
    lines, escaped quotes, raw strings (R"delim(...)delim" with any
    prefix/delimiter, including embedded newlines and quotes) and digit
    separators (1'000'000 — an apostrophe between alphanumerics is not
    a char literal).

    On top of the code view it tracks structure:
      - depth_at_line[i]: brace depth at the start of line i+1 (a cheap
        scope oracle: 0 = file scope, >=1 = inside a body)
      - line_of(offset): offset -> 1-based line number
      - matching_paren(offset): index of the ')' closing the '(' at
        offset, for rules that must reason about a whole call
        expression spanning several lines
    """

    def __init__(self, text):
        self.text = text
        self.code = self._blank(text)
        self.code_lines = self.code.split("\n")
        self._line_starts = [0]
        for i, ch in enumerate(self.code):
            if ch == "\n":
                self._line_starts.append(i + 1)
        self.depth_at_line = self._brace_depths(self.code_lines)

    @staticmethod
    def _blank(text):
        out = []
        i, n = 0, len(text)
        CODE, LINE, BLOCK, STR, CHR, RAW = range(6)
        state = CODE
        raw_term = ""
        while i < n:
            ch = text[i]
            if state == CODE:
                nxt = text[i + 1] if i + 1 < n else ""
                if ch == "/" and nxt == "/":
                    state = LINE
                    out.append("  ")
                    i += 2
                elif ch == "/" and nxt == "*":
                    state = BLOCK
                    out.append("  ")
                    i += 2
                elif ch == '"':
                    # Raw string?  An R (with optional u8/u/U/L prefix)
                    # glued to the quote introduces R"delim( ... )delim".
                    j = i - 1
                    while j >= 0 and text[j].isalnum():
                        j -= 1
                    prefix = text[j + 1:i]
                    if prefix.endswith("R") and \
                            prefix in ("R", "uR", "u8R", "UR", "LR"):
                        k = text.find("(", i + 1)
                        if k < 0:
                            out.append(ch)
                            i += 1
                            continue
                        raw_term = ")" + text[i + 1:k] + '"'
                        state = RAW
                        out.append('"')
                        out.append(" " * (k - i))
                        i = k + 1
                    else:
                        state = STR
                        out.append('"')
                        i += 1
                elif ch == "'":
                    prev = text[i - 1] if i > 0 else ""
                    if prev.isalnum() or prev == "_":
                        # digit separator (1'000'000), not a literal
                        out.append(ch)
                        i += 1
                    else:
                        state = CHR
                        out.append("'")
                        i += 1
                else:
                    out.append(ch)
                    i += 1
            elif state == LINE:
                if ch == "\n":
                    state = CODE
                    out.append("\n")
                else:
                    out.append(" ")
                i += 1
            elif state == BLOCK:
                if ch == "*" and i + 1 < n and text[i + 1] == "/":
                    state = CODE
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if ch == "\n" else " ")
                    i += 1
            elif state in (STR, CHR):
                quote = '"' if state == STR else "'"
                if ch == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                elif ch == quote:
                    state = CODE
                    out.append(quote)
                    i += 1
                elif ch == "\n":   # unterminated; bail to CODE
                    state = CODE
                    out.append("\n")
                    i += 1
                else:
                    out.append(" ")
                    i += 1
            else:   # RAW
                if text.startswith(raw_term, i):
                    state = CODE
                    out.append(" " * (len(raw_term) - 1) + '"')
                    i += len(raw_term)
                else:
                    out.append("\n" if ch == "\n" else " ")
                    i += 1
        return "".join(out)

    @staticmethod
    def _brace_depths(code_lines):
        depths = []
        depth = 0
        for line in code_lines:
            depths.append(depth)
            depth += line.count("{") - line.count("}")
        return depths

    def line_of(self, offset):
        return bisect.bisect_right(self._line_starts, offset)

    def matching_paren(self, offset):
        assert self.code[offset] == "("
        depth = 0
        for i in range(offset, len(self.code)):
            c = self.code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return i
        return -1


def ref_captures(capture_list):
    """The by-reference items of a lambda capture list: '&', '&name',
    or '&name...'. Init-captures of pointers ('p = &x') are by-value
    and not returned."""
    refs = []
    for item in capture_list.split(","):
        item = item.strip()
        if item == "&" or (item.startswith("&") and
                           not item.startswith("&&")):
            refs.append(item)
    return refs


def allowed(rule, raw_lines, idx):
    """A finding is suppressed by an allow() annotation on the same
    line or the immediately preceding line."""
    for j in (idx, idx - 1):
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m and m.group(1) == rule:
                return True
    return False


def lint_file(root, rel_path, findings):
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        findings.append(Finding(rel_path, 0, "io", str(e)))
        return

    raw = text.splitlines()

    # File-level suppressions: an allow-file(<rule>) comment anywhere in
    # the file silences that rule for every line of it.
    file_allowed = set()
    for raw_line in raw:
        for m in ALLOW_FILE_RE.finditer(raw_line):
            file_allowed.add(m.group(1))

    tok = Tokenizer(text)
    code = tok.code_lines
    top_dir = rel_path.split(os.sep, 1)[0]
    is_header = rel_path.endswith(HEADER_EXTS)
    in_src = top_dir == "src"
    # The event-kernel hot path: the whole of src/sim.
    in_kernel = rel_path.startswith("src" + os.sep + "sim" + os.sep)

    def report_at(idx, rule, message):
        """idx is 0-based line index."""
        if rule not in file_allowed and not allowed(rule, raw, idx):
            findings.append(Finding(rel_path, idx + 1, rule, message))

    # ---- pragma-once: headers must be include-guarded. The guard may
    # sit below a long doc comment, so scan the whole file.
    if is_header:
        if "#pragma once" not in text and "#ifndef" not in text:
            report_at(0, "pragma-once",
                      "header lacks #pragma once / include guard")

    # Names declared as unordered containers anywhere in this file.
    unordered_names = set()
    for line in code:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))

    for idx, line in enumerate(code):
        if RAND_RE.search(line):
            report_at(idx, "rand",
                      "global-state RNG; use common/rng.hh (seeded) instead")
        if RANDOM_DEVICE_RE.search(line):
            report_at(idx, "random-device",
                      "std::random_device is nondeterministic; seed an Rng")
        if WALL_CLOCK_RE.search(line):
            report_at(idx, "wall-clock",
                      "wall-clock time breaks run-to-run determinism")
        if NEW_RE.search(line) or DELETE_RE.search(line):
            report_at(idx, "raw-new",
                      "raw new/delete; use std::unique_ptr or a container")
        if in_src and top_dir not in EXIT_EXEMPT_DIRS \
                and EXIT_RE.search(line):
            report_at(idx, "exit",
                      "library code must throw (common/error.hh), not exit")
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in unordered_names \
                and tok.depth_at_line[idx] >= 1:
            report_at(idx, "unordered-iter",
                      f"iterating unordered container '{m.group(1)}': "
                      "order is not deterministic; sort keys first")
        if is_header and in_src and NAKED_U64_RE.search(line):
            pname = NAKED_U64_RE.search(line).group(1)
            report_at(idx, "naked-u64",
                      f"parameter '{pname}' is a raw uint64_t; "
                      "use Tick/Addr from common/types.hh")
        if in_kernel and STD_FUNCTION_RE.search(line):
            report_at(idx, "std-function",
                      "std::function in the simulation kernel heap-"
                      "allocates per callback; use InlineCallable "
                      "(sim/inline_callable.hh) or a pre-bound event")
        if (in_src or top_dir == "tools") and NAKED_LOCK_RE.search(line):
            report_at(idx, "naked-lock",
                      "raw std sync type is invisible to clang's thread-"
                      "safety analysis; use sync::Mutex / sync::MutexLock"
                      " / sync::CondVar (common/sync.hh)")
        if (in_src or top_dir == "tools") and MANUAL_LOCK_RE.search(line) \
                and tok.depth_at_line[idx] >= 1:
            report_at(idx, "naked-lock",
                      "manual .lock()/.unlock(); use a scoped "
                      "sync::MutexLock / sync::UniqueLock so the lock "
                      "is released on every path")
        if DETACH_RE.search(line):
            report_at(idx, "detached-thread",
                      "detached thread outlives shutdown and races "
                      "static destruction; join it instead")

    # ---- callback-capture: reference captures into deferred-callback
    # sinks. Needs the whole call expression (often spans lines), so it
    # runs on the full code view with paren matching.
    if in_src:
        for m in SINK_RE.finditer(tok.code):
            open_paren = m.end() - 1
            close_paren = tok.matching_paren(open_paren)
            if close_paren < 0:
                continue
            span = tok.code[open_paren:close_paren]
            for lm in LAMBDA_RE.finditer(span):
                refs = ref_captures(lm.group(1))
                if not refs:
                    continue
                at = tok.line_of(open_paren + lm.start()) - 1
                report_at(at, "callback-capture",
                          f"lambda captures {', '.join(refs)} by "
                          "reference into a deferred callback; the "
                          "referent may be gone when the event fires — "
                          "capture by value (capturing `this` is fine: "
                          "components outlive the Simulator)")

    # ---- res-transition: one-sided ResourceMonitor state transitions.
    # Gated on the file mentioning resmon at all (include path or member
    # name, checked in the RAW text since the code view blanks include
    # strings) so `.busy(` on unrelated types never fires.
    if "resmon" in text:
        def first_transition(name):
            m = RES_TRANSITION_RES[name].search(tok.code)
            return tok.line_of(m.start()) - 1 if m else None
        for have, need in (("busy", "idle"), ("idle", "busy"),
                           ("enqueue", "dequeue"), ("dequeue", "enqueue")):
            at = first_transition(have)
            if at is not None and first_transition(need) is None:
                report_at(at, "res-transition",
                          f"ResourceMonitor {have}() with no {need}() "
                          "anywhere in this file: the resource "
                          "transitions one way and its utilization/"
                          "queue integral runs away; pair the calls or "
                          "use the interval API (service())")

    # ---- atomic-rmw: store-of-own-load spanning up to one statement.
    for m in ATOMIC_RMW_RE.finditer(tok.code):
        report_at(tok.line_of(m.start()) - 1, "atomic-rmw",
                  f"'{m.group(1)}.store({m.group(1)}.load() ...)' is "
                  "not atomic: updates race and get lost; use "
                  "fetch_add/fetch_sub/exchange/compare_exchange")

    return findings


def iter_sources(root):
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def run_lint(root):
    findings = []
    nfiles = 0
    for rel in iter_sources(root):
        nfiles += 1
        lint_file(root, rel, findings)
    return nfiles, findings


# --------------------------------------------------------------- self-test

SELF_TEST_FILES = {
    # rule -> (relative path, content) planting exactly that violation
    "rand": ("src/bad_rand.cc",
             "int noise() { return std::rand(); }\n"),
    "random-device": ("src/bad_rd.cc",
                      "#include <random>\n"
                      "unsigned seed() { return std::random_device{}(); }\n"),
    "wall-clock": ("src/bad_clock.cc",
                   "#include <chrono>\n"
                   "auto now() { return "
                   "std::chrono::system_clock::now(); }\n"),
    "unordered-iter": ("src/bad_iter.cc",
                       "#include <unordered_map>\n"
                       "std::unordered_map<int, int> stats_;\n"
                       "int sum() { int s = 0;\n"
                       "for (const auto &kv : stats_) s += kv.second;\n"
                       "return s; }\n"),
    "raw-new": ("src/bad_new.cc",
                "struct T {}; T *make() { return new T; }\n"),
    "exit": ("src/bad_exit.cc",
             "#include <cstdlib>\n"
             "void die() { std::exit(1); }\n"),
    "pragma-once": ("src/bad_guard.hh",
                    "struct Unguarded {};\n"),
    "naked-u64": ("src/bad_param.hh",
                  "#pragma once\n"
                  "#include <cstdint>\n"
                  "void access(std::uint64_t addr, bool write);\n"),
    "std-function": ("src/sim/bad_callback.hh",
                     "#pragma once\n"
                     "#include <functional>\n"
                     "struct Ev { std::function<void()> cb; };\n"),
    # The call spans lines and mixes a clean value capture with the
    # planted reference capture: exercises paren matching + the
    # capture-list parser, not just the sink regex.
    "callback-capture": ("src/bad_capture.cc",
                         "struct Sim {\n"
                         "    template <class F>\n"
                         "    void scheduleIn(double, F &&) {}\n"
                         "};\n"
                         "void arm(Sim &sim) {\n"
                         "    int budget = 3;\n"
                         "    sim.scheduleIn(5.0,\n"
                         "                   [&budget] { --budget; });\n"
                         "}\n"),
    "naked-lock": ("src/bad_lock.cc",
                   "#include <mutex>\n"
                   "struct Counter {\n"
                   "    std::mutex mu;\n"
                   "    int n = 0;\n"
                   "};\n"),
    "detached-thread": ("src/bad_detach.cc",
                        "#include <thread>\n"
                        "void fire() { std::thread([] {}).detach(); }\n"),
    "atomic-rmw": ("src/bad_rmw.cc",
                   "#include <atomic>\n"
                   "std::atomic<int> hits{0};\n"
                   "void bump() {\n"
                   "    hits.store(\n"
                   "        hits.load() + 1);\n"
                   "}\n"),
    # busy() with no idle() in a resmon-touching file: the resource
    # would read 100% utilized forever after the first event.
    "res-transition": ("src/bad_resmon.cc",
                       "#include \"obs/resmon.hh\"\n"
                       "void track(emcc::obs::ResourceMonitor &resmon,\n"
                       "           emcc::obs::ResId id, emcc::Tick t) {\n"
                       "    resmon.busy(id, t);\n"
                       "    resmon.enqueue(id, t);\n"
                       "    resmon.dequeue(id, t);\n"
                       "}\n"),
}

# The detailed/fast-forward seam defers its closure like post() does,
# even though fast-forward runs it inline.
SEAM_CAPTURE_FILE = ("src/bad_seam.cc", """\
struct Sys {
    template <class F>
    void runAt(unsigned long, F &&) {}
};
void fill(Sys &sys, unsigned long blk) {
    sys.runAt(blk, [&blk] { (void)blk; });
}
""")

# steady_clock is flagged like any other host clock...
STEADY_FILE = ("src/bad_steady.cc", """\
#include <chrono>
auto tic() { return std::chrono::steady_clock::now(); }
""")

# ...unless the whole file is annotated as the designated exception.
ALLOW_FILE_FILE = ("src/host_timer.hh", """\
// Host profiling stopwatch; the one permitted clock reader.
// emcc-lint: allow-file(wall-clock)
#pragma once
#include <chrono>
auto tic() { return std::chrono::steady_clock::now(); }
auto toc() { return std::chrono::steady_clock::now(); }
""")

CLEAN_FILE = ("src/clean.hh", """\
#pragma once
#include <cstdint>
#include <unordered_map>
// This file is deliberately lint-clean: strong types, annotated
// iteration, no banned constructs.
namespace t {
using Addr = std::uint64_t;   // stand-in; real tree uses common/types.hh
struct S {
    std::unordered_map<int, int> m_;
    int
    total() const
    {
        int s = 0;
        // emcc-lint: allow(unordered-iter) — sum is order-independent
        for (const auto &kv : m_)
            s += kv.second;
        return s;
    }
};
} // namespace t
""")

# Tokenizer torture: every banned token below is inert — inside a raw
# string, an escaped string, a char literal or a comment — and the
# digit separator must not open a char literal that swallows the rest
# of the file.
TOKENS_FILE = ("src/clean_tokens.cc", '''\
static const char *doc = R"lint(
    std::rand(); std::random_device rd; system_clock::now();
    new int[3]; std::exit(1); t.detach(); std::mutex guard;
)lint";
static const char *s = "std::rand() \\" srand(7)";
/* block comment spanning lines:
   std::mutex guard; delete p; std::function<void()> f;
   for (auto &kv : stats_) {}
*/
static const char q = \'"\';
static const long sep = 1\'000\'000;   // separator, not a char literal
int use() { return (doc && s && q) ? 1 : static_cast<int>(sep); }
''')

# Concurrency idioms that must NOT be flagged: value / init-pointer /
# `this` captures into schedule sinks, real atomic RMWs, stores guarded
# by an unrelated load.
CLEAN_CONC_FILE = ("src/clean_conc.cc", """\
#include <atomic>
struct Sim { template <class F> void schedule(double, F &&) {} };
struct Comp {
    Sim *sim_;
    std::atomic<int> hits_{0};
    std::atomic<bool> stop_{false};
    void
    ok()
    {
        int snapshot = hits_.fetch_add(1);
        sim_->schedule(1.0, [snapshot] { (void)snapshot; });
        sim_->schedule(2.0, [this] { hits_.fetch_sub(1); });
        sim_->schedule(3.0, [p = &hits_] { p->fetch_add(1); });
        stop_.store(hits_.load() > 4);   // different objects: not a RMW
    }
};
""")


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="emcc_lint_st_") as tmp:
        os.makedirs(os.path.join(tmp, "src"), exist_ok=True)
        for rule, (rel, content) in SELF_TEST_FILES.items():
            os.makedirs(os.path.dirname(os.path.join(tmp, rel)),
                        exist_ok=True)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        clean_files = (CLEAN_FILE, TOKENS_FILE, CLEAN_CONC_FILE,
                       ALLOW_FILE_FILE)
        for rel, content in clean_files + (STEADY_FILE,
                                           SEAM_CAPTURE_FILE):
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)

        _, findings = run_lint(tmp)
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, []).append(f.rule)

        for rule, (rel, _) in SELF_TEST_FILES.items():
            got = by_file.get(rel, [])
            if rule not in got:
                failures.append(
                    f"planted {rule} violation in {rel} NOT caught "
                    f"(got: {got or 'nothing'})")
        for rel, _ in clean_files:
            hits = by_file.get(rel, [])
            if hits:
                failures.append(
                    f"clean file {rel} produced false positives: {hits}")
        if "wall-clock" not in by_file.get(STEADY_FILE[0], []):
            failures.append(
                "steady_clock without allow-file annotation NOT caught")
        if "callback-capture" not in by_file.get(SEAM_CAPTURE_FILE[0], []):
            failures.append(
                "reference capture into runAt() NOT caught")

    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"self-test OK: all {len(SELF_TEST_FILES) + 2} planted "
              "violations caught; clean/tokenizer/concurrency/allow-file "
              "files clean")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="tree to lint (default: repo root above tools/)")
    ap.add_argument("--fix-hints", action="store_true",
                    help="print the allow() comment that would suppress "
                         "each finding (for documented false positives)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the linter catches planted violations")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    nfiles, findings = run_lint(root)
    for f in findings:
        print(f)
        if args.fix_hints:
            print(f"    suppress with: // emcc-lint: allow({f.rule})  "
                  "(same or preceding line; justify in the comment)")
    status = "clean" if not findings else f"{len(findings)} finding(s)"
    print(f"emcc-lint: {nfiles} files scanned, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
