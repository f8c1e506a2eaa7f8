#!/usr/bin/env python3
"""smr_lint.py — static SMR-contract lint for the popsmr source tree.

The reclamation contracts this repo depends on (allocation routes through
the pool, memory orders are explicit and justified, operation brackets
pair, frees route through the domain, TSan suppressions stay honest) are
mechanically checkable without a compiler: the code style is regular
enough that a deterministic token/regex pass catches the violation classes
that have actually bitten (see ISSUE history: three races shipped behind
an implicit seq_cst and a stale suppression). No libclang, no build —
runnable on a bare checkout, in CI, pre-commit, anywhere.

Rules (each individually suppressible — see SUPPRESSION below):

  R1  raw-allocation ban (src/ds/): no `new`/`delete`/`malloc`/`free` —
      node memory must route through the pool/domain (create_node,
      destroy_unpublished, retire). Placement new is exempt (it does not
      allocate); `= delete` declarations are exempt.
  R2  explicit memory orders (src/smr/, src/core/, src/ds/): every
      std::atomic load/store/RMW must pass a std::memory_order_*
      argument — a bare call is an implicit seq_cst nobody reviewed.
      Additionally every *explicit* seq_cst must carry a justification
      comment mentioning "seq_cst" on the same line or within the three
      preceding lines: the repo's fence-safety arguments are load-bearing
      (see tsan.supp) and an unexplained seq_cst is either a missing
      argument for why, or wasted cycles.
  R3  bracket pairing (src/): within one function body, `batch_begin`
      calls must balance `batch_end` calls and `begin_op` calls must
      balance `end_op` calls (OpGuard handles pairing by construction;
      this rule polices the direct callers). A bare `return` while a
      hand-opened begin_op bracket is open is flagged too — RAII can't
      save a hand-rolled bracket.
  R4  no direct `delete` in src/smr/ or src/core/ outside
      retire_list.hpp: a Reclaimable dies as a pool block, swept into a
      FreeBatch or freed by destroy_unpublished, never through a scheme
      calling delete.
  R5  tsan.supp hygiene: every suppression pattern must still resolve to
      a symbol present under src/ (dead suppressions silently mask future
      races), and must sit under a `# ---` documentation block explaining
      why it is benign.
  R6  no kMaxThreads-sized data member (src/smr/, src/core/, src/ds/,
      src/service/): an array indexed by tid outside a function body
      makes every instance pay for every tid the registry could hand out.
      Per-thread state goes in runtime::TidRows, whose rows are allocated
      by the threads that touch the object. Stack locals in function
      bodies (a handshake's `waited[]`) are exempt, and so are the
      process singletons under src/runtime/ and src/obs/, which R6 does
      not scan.

SUPPRESSION: append `// smr-lint: allow(R1)` (or `allow(R1,R3)`) to the
offending line, or place it on a comment line immediately above. In
tsan.supp use `# smr-lint: allow(R5)`. Suppressions are per-line and
per-rule — there is no file-level or global opt-out by design.

Output is `path:line: [Rn] message` (clickable in CI logs). Exit 1 iff
findings remain. `--self-test` runs every rule against an inline fixture
corpus with seeded violations and asserts the exact findings, mirroring
check_bench_jsonl.py.

Usage:
  tools/smr_lint.py [--root DIR] [--rules R1,R2,...] [--list-rules]
  tools/smr_lint.py --self-test
"""

import argparse
import os
import re
import sys

RULES = {
    "R1": "raw new/delete/malloc/free in src/ds/ (allocation must route "
          "through the pool/domain)",
    "R2": "std::atomic access without an explicit std::memory_order_* "
          "argument, or seq_cst without a justification comment",
    "R3": "unbalanced batch_begin/batch_end or begin_op/end_op within a "
          "function, or return across a hand-opened bracket",
    "R4": "direct delete in src/smr/ or src/core/ outside retire_list.hpp",
    "R5": "tsan.supp suppression that is stale (symbol gone from src/) or "
          "undocumented (no preceding '# ---' block)",
    "R6": "kMaxThreads-sized data member in src/smr/, src/core/, src/ds/ "
          "or src/service/ (per-thread state goes in runtime::TidRows)",
}

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "requires", "sizeof", "alignof", "decltype", "constexpr"}

ATOMIC_METHODS = ("load", "store", "exchange", "fetch_add", "fetch_sub",
                  "fetch_and", "fetch_or", "fetch_xor",
                  "compare_exchange_weak", "compare_exchange_strong")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text):
    """Blank out comments and string/char literals, preserving layout.

    Returns (code, comments) — both same length/line structure as `text`:
    `code` has comments and literal contents replaced with spaces, and
    `comments` has everything EXCEPT comment text blanked. Keeping both
    lets rules match code without tripping on prose, while suppression
    and justification checks read the prose.
    """
    code = list(text)
    comments = [c if c == "\n" else " " for c in text]
    i, n = 0, len(text)
    NONE, LINE, BLOCK, STR, CHR = 0, 1, 2, 3, 4
    state = NONE
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NONE:
            if c == "/" and nxt == "/":
                state = LINE
                code[i] = code[i + 1] = " "
                comments[i], comments[i + 1] = "/", "/"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                code[i] = code[i + 1] = " "
                comments[i], comments[i + 1] = "/", "*"
                i += 2
                continue
            if c == '"':
                state = STR
                i += 1
                continue
            if c == "'":
                state = CHR
                i += 1
                continue
            i += 1
            continue
        if state == LINE:
            if c == "\n":
                state = NONE
            else:
                code[i] = " "
                comments[i] = c
            i += 1
            continue
        if state == BLOCK:
            if c == "*" and nxt == "/":
                state = NONE
                code[i] = code[i + 1] = " "
                comments[i], comments[i + 1] = "*", "/"
                i += 2
                continue
            if c != "\n":
                code[i] = " "
                comments[i] = c
            i += 1
            continue
        # String/char literal: blank contents (keep the quotes in code so
        # tokens never merge across them), honor escapes.
        if c == "\\" and i + 1 < n:
            code[i] = code[i + 1] = " "
            i += 2
            continue
        if (state == STR and c == '"') or (state == CHR and c == "'"):
            state = NONE
            i += 1
            continue
        if c != "\n":
            code[i] = " "
        i += 1
    return "".join(code), "".join(comments)


ALLOW_RE = re.compile(r"smr-lint:\s*allow\(([A-Z0-9, ]+)\)")


def parse_allows(code_lines, comment_lines):
    """Per-line rule suppressions: an allow comment covers its own line,
    and — when the line holds no code — the next line as well."""
    allowed = {}
    for idx, comment in enumerate(comment_lines):
        m = ALLOW_RE.search(comment)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed.setdefault(idx, set()).update(rules)
        if not code_lines[idx].strip():
            allowed.setdefault(idx + 1, set()).update(rules)
    return allowed


def is_allowed(allowed, line_idx, rule):
    return rule in allowed.get(line_idx, set())


def line_of(text, pos):
    return text.count("\n", 0, pos)


def balanced_args(code, open_paren_pos):
    """Text between a '(' and its matching ')' (or None if unbalanced)."""
    depth = 0
    for j in range(open_paren_pos, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren_pos + 1:j]
    return None


# ---- R1 --------------------------------------------------------------------

R1_NEW = re.compile(r"\bnew\b(?!\s*\()")  # placement new is exempt
R1_DELETE = re.compile(r"(?<![=\w])\s*\bdelete\b(?:\s*\[\s*\])?")
R1_CFN = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
EQ_DELETE = re.compile(r"=\s*(?:delete|default)\b")


def rule_r1(path, code, comments, allowed, findings):
    code_lines = code.split("\n")
    for idx, line in enumerate(code_lines):
        if is_allowed(allowed, idx, "R1"):
            continue
        stripped = EQ_DELETE.sub("", line)
        if R1_NEW.search(line):
            findings.append(Finding(path, idx + 1, "R1",
                                    "raw `new` — route allocation through "
                                    "domain.create/PoolAllocator"))
        if R1_DELETE.search(stripped):
            findings.append(Finding(path, idx + 1, "R1",
                                    "raw `delete` — retire through the "
                                    "domain or use destroy_unpublished"))
        m = R1_CFN.search(line)
        if m:
            findings.append(Finding(path, idx + 1, "R1",
                                    f"raw `{m.group(1)}` — route through "
                                    "the pool allocator"))


# ---- R2 --------------------------------------------------------------------

R2_CALL = re.compile(r"\.(" + "|".join(ATOMIC_METHODS) + r")\s*\(")
R2_SEQ = re.compile(r"\bmemory_order_seq_cst\b|\bmemory_order::seq_cst\b")


def rule_r2(path, code, comments, allowed, findings):
    comment_lines = comments.split("\n")
    for m in R2_CALL.finditer(code):
        method = m.group(1)
        args = balanced_args(code, m.end() - 1)
        if args is None:
            continue
        idx = line_of(code, m.start())
        if is_allowed(allowed, idx, "R2"):
            continue
        if "memory_order" not in args:
            findings.append(Finding(
                path, idx + 1, "R2",
                f"std::atomic {method}() without an explicit "
                "std::memory_order_* argument (implicit seq_cst)"))
    for m in R2_SEQ.finditer(code):
        idx = line_of(code, m.start())
        if is_allowed(allowed, idx, "R2"):
            continue
        window = comment_lines[max(0, idx - 3):idx + 1]
        if not any("seq_cst" in c for c in window):
            findings.append(Finding(
                path, idx + 1, "R2",
                "seq_cst without a justification comment mentioning "
                "seq_cst on this or the three preceding lines"))


# ---- R3 --------------------------------------------------------------------

IDENT_BACK = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*$")


def function_bodies(code):
    """Yield (start_line_idx, body_text) for every top-level function-like
    body: a '{' whose preceding code ends in ')' (allowing const/noexcept/
    override/final/trailing-return in between) and whose call-paren is not
    introduced by a control keyword. Nested blocks stay inside the
    enclosing body; bodies are yielded outermost-only.
    """
    for start, end in function_body_spans(code):
        yield line_of(code, start), code[start:end]


def function_body_spans(code):
    """The (start, end) character span of each body function_bodies
    yields, from its '{' to just past its '}'."""
    depth = 0
    fn_start = None   # char pos of the function's '{'
    fn_depth = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "{":
            if fn_start is None and looks_like_function_open(code, i):
                fn_start = i
                fn_depth = depth
            depth += 1
        elif c == "}":
            depth -= 1
            if fn_start is not None and depth == fn_depth:
                yield fn_start, i + 1
                fn_start = None
        i += 1


def looks_like_function_open(code, brace_pos):
    # Walk back over qualifiers to find the ')' that should close the
    # parameter list.
    j = brace_pos - 1
    tail = []
    while j >= 0 and len(tail) < 160:
        tail.append(code[j])
        j -= 1
    before = "".join(reversed(tail)).rstrip()
    before = re.sub(r"(const|noexcept|override|final|mutable)\s*$", "",
                    before).rstrip()
    before = re.sub(r"noexcept\s*\([^()]*\)\s*$", "", before).rstrip()
    before = re.sub(r"->\s*[\w:<>,&*\s]+$", "", before).rstrip()
    if not before.endswith(")"):
        return False
    # Match that ')' back to its '(' and read the identifier before it.
    depth = 0
    k = brace_pos - 1
    while k >= 0:
        if code[k] == ")":
            depth += 1
        elif code[k] == "(":
            depth -= 1
            if depth == 0:
                break
        k -= 1
    if k < 0:
        return False
    m = IDENT_BACK.search(code[max(0, k - 80):k])
    if not m:
        return False  # e.g. a lambda `[...] (...) {` at top level
    return m.group(1) not in CONTROL_KEYWORDS


R3_PAIRS = (("batch_begin", "batch_end"), ("begin_op", "end_op"))


def rule_r3(path, code, comments, allowed, findings):
    for start_idx, body in function_bodies(code):
        # The opening '{' may sit below the signature line carrying the
        # allow comment, so honor the line above it too.
        if is_allowed(allowed, start_idx, "R3") or \
                is_allowed(allowed, start_idx - 1, "R3"):
            continue
        for opener, closer in R3_PAIRS:
            opens = len(re.findall(rf"\b{opener}\s*\(", body))
            closes = len(re.findall(rf"\b{closer}\s*\(", body))
            if opens != closes:
                findings.append(Finding(
                    path, start_idx + 1, "R3",
                    f"{opens} {opener}() vs {closes} {closer}() in one "
                    "function — every bracket opened must be reachable-"
                    "closed in the same function"))
        # Bare return while a hand-opened begin_op bracket is open.
        open_now = 0
        for tok in re.finditer(r"\b(begin_op|end_op|return)\b", body):
            kind = tok.group(1)
            if kind == "begin_op":
                open_now += 1
            elif kind == "end_op":
                open_now = max(0, open_now - 1)
            elif open_now > 0:
                idx = start_idx + body.count("\n", 0, tok.start())
                if not is_allowed(allowed, idx, "R3"):
                    findings.append(Finding(
                        path, idx + 1, "R3",
                        "return crosses an open begin_op bracket — the "
                        "entry-time reservation leaks"))


# ---- R4 --------------------------------------------------------------------


def rule_r4(path, code, comments, allowed, findings):
    for idx, line in enumerate(code.split("\n")):
        if is_allowed(allowed, idx, "R4"):
            continue
        if R1_DELETE.search(EQ_DELETE.sub("", line)):
            findings.append(Finding(
                path, idx + 1, "R4",
                "direct `delete` in scheme code — a Reclaimable dies as a "
                "pool block, swept into a FreeBatch or destroy_unpublished"))


# ---- R6 --------------------------------------------------------------------

R6_SIZED = re.compile(r"\[[^\[\];]*\bkMaxThreads\b[^\[\];]*\]"
                      r"|\barray\s*<[^;>]*\bkMaxThreads\b")


def rule_r6(path, code, comments, allowed, findings):
    bodies = list(function_body_spans(code))
    for m in R6_SIZED.finditer(code):
        if any(start < m.start() < end for start, end in bodies):
            continue  # a stack local
        idx = line_of(code, m.start())
        if is_allowed(allowed, idx, "R6"):
            continue
        findings.append(Finding(
            path, idx + 1, "R6",
            "kMaxThreads-sized data member — every instance pays for "
            "every tid; keep per-thread state in runtime::TidRows"))


# ---- R5 --------------------------------------------------------------------

SUPP_RE = re.compile(
    r"^(race|signal|mutex|thread|deadlock|called_from_lib):(.+)$")


def rule_r5(supp_path, supp_text, symbol_exists, findings):
    lines = supp_text.split("\n")
    allow_next = False
    for idx, raw in enumerate(lines):
        line = raw.strip()
        if line.startswith("#"):
            if ALLOW_RE.search(line) and "R5" in ALLOW_RE.search(
                    line).group(1):
                allow_next = True
            continue
        m = SUPP_RE.match(line)
        if not m:
            allow_next = False
            continue
        if allow_next:
            allow_next = False
            continue
        pattern = m.group(2).strip()
        # Documentation: the nearest preceding non-suppression non-blank
        # line must be a comment, and its contiguous comment block must
        # contain a `# ---` header.
        documented = False
        j = idx - 1
        while j >= 0:
            prev = lines[j].strip()
            if SUPP_RE.match(prev) or not prev:
                j -= 1
                continue
            if prev.startswith("#"):
                while j >= 0 and lines[j].strip().startswith("#"):
                    if lines[j].strip().startswith("# ---"):
                        documented = True
                        break
                    j -= 1
            break
        if not documented:
            findings.append(Finding(
                supp_path, idx + 1, "R5",
                f"suppression '{pattern}' lacks a preceding '# ---' "
                "documentation block"))
        # Staleness: the last resolvable identifier component must still
        # exist somewhere under src/.
        parts = [re.sub(r"<[^<>]*>", "", p).replace("*", "").strip()
                 for p in pattern.split("::")]
        parts = [p for p in parts if re.fullmatch(r"[A-Za-z_]\w*", p or "")]
        if not parts:
            findings.append(Finding(
                supp_path, idx + 1, "R5",
                f"suppression '{pattern}' has no resolvable identifier "
                "component to check against src/"))
            continue
        if not symbol_exists(parts[-1]):
            findings.append(Finding(
                supp_path, idx + 1, "R5",
                f"stale suppression: symbol '{parts[-1]}' (from "
                f"'{pattern}') no longer exists under src/ — delete the "
                "entry or it will silently mask future races"))


# ---- driver ----------------------------------------------------------------

SCAN_EXTS = (".hpp", ".cpp", ".h", ".cc")


def scan_tree(root, rules):
    findings = []
    src = os.path.join(root, "src")
    files = []
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith(SCAN_EXTS):
                files.append(os.path.join(dirpath, fn))
    src_blob_parts = []
    for path in sorted(files):
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        src_blob_parts.append(text)
        rel = os.path.relpath(path, root)
        code, comments = strip_code(text)
        code_lines = code.split("\n")
        comment_lines = comments.split("\n")
        allowed = parse_allows(code_lines, comment_lines)
        in_ds = rel.startswith(os.path.join("src", "ds") + os.sep)
        in_smr = rel.startswith(os.path.join("src", "smr") + os.sep)
        in_core = rel.startswith(os.path.join("src", "core") + os.sep)
        in_service = rel.startswith(os.path.join("src", "service") + os.sep)
        if "R1" in rules and in_ds:
            rule_r1(rel, code, comments, allowed, findings)
        if "R2" in rules and (in_ds or in_smr or in_core):
            rule_r2(rel, code, comments, allowed, findings)
        if "R3" in rules:
            rule_r3(rel, code, comments, allowed, findings)
        if "R4" in rules and (in_smr or in_core) and \
                os.path.basename(path) != "retire_list.hpp":
            rule_r4(rel, code, comments, allowed, findings)
        if "R6" in rules and (in_ds or in_smr or in_core or in_service):
            rule_r6(rel, code, comments, allowed, findings)
    if "R5" in rules:
        supp = os.path.join(root, "tsan.supp")
        if os.path.exists(supp):
            with open(supp, "r", encoding="utf-8") as f:
                supp_text = f.read()
            blob = "\n".join(src_blob_parts)
            rule_r5(os.path.relpath(supp, root), supp_text,
                    lambda sym: re.search(rf"\b{re.escape(sym)}\b", blob)
                    is not None, findings)
    return findings


# ---- self-test -------------------------------------------------------------

def run_rules_on(text, rules, path="fixture.hpp"):
    code, comments = strip_code(text)
    allowed = parse_allows(code.split("\n"), comments.split("\n"))
    findings = []
    if "R1" in rules:
        rule_r1(path, code, comments, allowed, findings)
    if "R2" in rules:
        rule_r2(path, code, comments, allowed, findings)
    if "R3" in rules:
        rule_r3(path, code, comments, allowed, findings)
    if "R4" in rules:
        rule_r4(path, code, comments, allowed, findings)
    if "R6" in rules:
        rule_r6(path, code, comments, allowed, findings)
    return findings


FIXTURE_R1 = """\
struct Node : Reclaimable { uint64_t k; };
Node* make(Domain& d) {
  Node* bad = new Node();            // line 3: R1 raw new
  Node* ok = d.create<Node>(7);
  new (&slot) std::atomic<Node*>(nullptr);  // placement new: exempt
  delete bad;                        // line 6: R1 raw delete
  void* p = malloc(64);              // line 7: R1 raw malloc
  Node* blessed = new Node();  // smr-lint: allow(R1) fixture exemption
  Fn(const Fn&) = delete;            // declaration: exempt
  return ok;
}
"""

FIXTURE_R2 = """\
void ops(std::atomic<uint64_t>& a) {
  a.store(1);                        // line 2: R2 implicit order
  a.load(std::memory_order_acquire);
  uint64_t v = a.load();             // line 4: R2 implicit order
  a.fetch_add(1, std::memory_order_acq_rel);
  a.compare_exchange_weak(v, 2);     // line 6: R2 implicit order
  // seq_cst: announcement must be ordered before the reads.
  a.store(2, std::memory_order_seq_cst);
  a.store(3, std::memory_order_seq_cst);  // line 9: R2 stale... no wait,
  // the comment 2 lines up still covers line 9's 3-line window.
  a.exchange(4,
             std::memory_order_seq_cst);  // line 12: R2 unjustified
}
"""

FIXTURE_R3 = """\
void good(IKV& m) {
  m.batch_begin();
  m.put(1, 2);
  m.batch_end();
}
void leaky(IKV& m) {
  m.batch_begin();
  m.put(1, 2);
}
void bracket_impl(IKV& m) {  // smr-lint: allow(R3) the bracket itself
  m.batch_begin();
}
bool early_out(Domain& d) {
  d.begin_op();
  if (shortcut) return true;
  d.end_op();
  return false;
}
"""

FIXTURE_R4 = """\
void sweep(Reclaimable* n) {
  if (stale(n)) delete n;            // line 2: R4 direct delete
  batch.add(n);
}
"""

FIXTURE_R6 = """\
struct Domain {
  Row rows_[runtime::kMaxThreads];          // line 2: R6 per-tid member
  uint64_t hb_[kMaxThreads] = {};           // line 3: R6
  std::array<Slot, runtime::kMaxThreads> s_;  // line 4: R6
  runtime::TidRows<Row> pt_;
  void scan() {
    Waited waited[runtime::kMaxThreads];    // stack local: exempt
    bool done[kMaxThreads] = {};
  }
  Row spare_[kMaxThreads];  // smr-lint: allow(R6) fixture exemption
};
Map::Map(int n)
    : ops_(new std::atomic<uint64_t>[kMaxThreads * n]()) {}  // line 13: R6
"""

FIXTURE_SUPP = """\
# header prose, not a doc block
race:pop::smr::LiveSymbol::method
# --- documented class ------------------------------------------------------
# why this is benign, at length.
race:LiveSymbol
race:GoneSymbol
# smr-lint: allow(R5)
race:AnotherGoneSymbol
"""


def self_test():
    failures = []

    def expect(desc, got, want):
        got_set = sorted((f.rule, f.line) for f in got)
        if got_set != sorted(want):
            failures.append(f"{desc}: expected {sorted(want)}, got "
                            f"{got_set} ({[repr(f) for f in got]})")

    expect("R1 seeded violations",
           run_rules_on(FIXTURE_R1, {"R1"}),
           [("R1", 3), ("R1", 6), ("R1", 7)])
    expect("R2 seeded violations",
           run_rules_on(FIXTURE_R2, {"R2"}),
           [("R2", 2), ("R2", 4), ("R2", 6), ("R2", 12)])
    expect("R3 seeded violations",
           run_rules_on(FIXTURE_R3, {"R3"}),
           [("R3", 6), ("R3", 15)])
    expect("R4 seeded violations",
           run_rules_on(FIXTURE_R4, {"R4"}, path="src/smr/fixture.hpp"),
           [("R4", 2)])

    expect("R6 seeded violations",
           run_rules_on(FIXTURE_R6, {"R6"}, path="src/smr/fixture.hpp"),
           [("R6", 2), ("R6", 3), ("R6", 4), ("R6", 13)])

    r5 = []
    rule_r5("tsan.supp", FIXTURE_SUPP,
            lambda sym: sym == "LiveSymbol" or sym == "method", r5)
    expect("R5 seeded violations", r5,
           [("R5", 2), ("R5", 6)])

    # Comment/string immunity: contract words in prose must not fire.
    immune = '// new delete malloc free begin_op(\n'\
             'const char* s = "delete new malloc(x)";\n'
    expect("comment/string immunity",
           run_rules_on(immune, {"R1", "R2", "R3", "R4", "R6"}), [])

    if failures:
        for f in failures:
            print(f"smr_lint: self-test FAIL: {f}", file=sys.stderr)
        return 1
    print("smr_lint: self-test OK — 7 fixtures, all seeded findings "
          "caught, exemptions honored")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    ap.add_argument("--rules", default=",".join(sorted(RULES)),
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run the inline fixture corpus and exit")
    args = ap.parse_args()

    if args.list_rules:
        for rid in sorted(RULES):
            print(f"{rid}  {RULES[rid]}")
        return 0
    if args.self_test:
        return self_test()

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        ap.error(f"unknown rule(s): {', '.join(sorted(unknown))} "
                 f"(known: {', '.join(sorted(RULES))})")

    findings = scan_tree(args.root, rules)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if findings:
        print(f"smr_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"smr_lint: clean ({', '.join(sorted(rules))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
