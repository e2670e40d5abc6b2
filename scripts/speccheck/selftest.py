"""Internal smoke tests for the builtin frontend and the checks.

Run with ``python3 scripts/speccheck --selftest``.  These are the
fast, dependency-free sanity tests that the negative-fixture ctest
suite (tests/speccheck/) builds on; they pin the parser behaviors
that past iterations got wrong: getter-shaped CleanupMode false
modes, subscripted assignments (``depMask_[slot] |= bit``),
smart-pointer receiver resolution, ctor exemption, mode-gated
closure admission, and which parameters bind an argument read-only
(a spec field passed to a const accessor is not a mutation).
"""

from __future__ import annotations

import traceback
from typing import Callable, List, Set, Tuple

import callgraph as cg
import frontend_builtin as fb
from baseline import Baseline, BaselineError
from checks import run_checks
from cpplex import tokenize
from model import AnnotationError, Model, parse_transition

MODES = {
    "UnsafeBaseline", "Cleanup_FOR_L1", "SafeSpec",
}

MODE_SNIPPET = """
enum class CleanupMode {
    UnsafeBaseline,
    Cleanup_FOR_L1,   // comment
    SafeSpec,
};
struct Holder {
    CleanupMode mode() const { return mode_; }  // NOT an enumerator
    CleanupMode mode_;
};
"""

DECL_SNIPPET = """
namespace unxpec {
struct Line {
    UNXPEC_SPEC_STATE bool speculative = false;
    UNXPEC_SPEC_STATE unsigned installer = 0;
    int committed = 0;
};
class Buffer {
  public:
    UNXPEC_TRANSITION("spec@Cleanup_FOR_L1,SafeSpec")
    void install(unsigned slot);
    UNXPEC_ROLLBACK("Cleanup_FOR_L1")
    void undo(unsigned slot);
    void helper();
  private:
    Line lines_[4];
    UNXPEC_SPEC_STATE unsigned mask_[4] = {};
};
}  // namespace unxpec
"""

BODY_SNIPPET = DECL_SNIPPET + """
namespace unxpec {
void Buffer::install(unsigned slot)
{
    lines_[slot].speculative = true;
    mask_[slot] |= 1u << slot;   // subscripted compound assignment
    helper();
}
void Buffer::undo(unsigned slot)
{
    lines_[slot].speculative = false;
}
void Buffer::helper()
{
    lines_[0].installer = 7;
}
}  // namespace unxpec
"""

UNORDERED_SNIPPET = """
#include <unordered_map>
namespace unxpec {
struct Walker {
    std::unordered_map<int, int> table;
    int sum() const {
        int acc = 0;
        for (const auto &kv : table)   // nondeterministic order
            acc += kv.second;
        return acc;
    }
};
}  // namespace unxpec
"""

# Only lines 12 (new), 13 (clock) and 14 (the walk) may fire: operator
# new, a deleted copy, a member time() call and comment or string text
# are not findings.
TOKEN_SNIPPET = """
// a float in a comment; std::chrono in "a float string"
namespace unxpec {
struct Pool {
    void *operator new(unsigned long size);
    Pool(const Pool &) = delete;
    std::unordered_map<int, int> index_;
    double now() const;
    const char *name = "float new delete rand()";
    int tick(Pool &other) {
        other.time();
        int *cell = new int(1);
        long t = clock();
        for (const auto &kv : index_) t += kv.second;
        return *cell + static_cast<int>(t);
    }
};
}  // namespace unxpec
"""

SUPPRESS_SNIPPET = """
namespace unxpec {
struct S {
    // lint-ok(steady-alloc): bounded by config, first touch only
    void f();
};
}  // namespace unxpec
"""


def _parse(text: str, modes: Set[str]) -> Model:
    decl = fb.parse_declarations("<selftest>", text, modes)
    model = Model(modes=set(modes))
    model.merge(decl)
    model.merge(fb.parse_bodies("<selftest>", text, decl))
    return model


def t_lexer() -> None:
    toks = tokenize("a /* x */ = \"str\"; // tail\nb;")
    texts = [t.text for t in toks]
    assert "a" in texts and "b" in texts, texts
    assert "str" in texts, "string contents must be kept"
    assert "x" not in texts and "tail" not in texts, "comments leak"


def t_modes() -> None:
    modes = fb.collect_modes(MODE_SNIPPET)
    assert modes == MODES, modes  # no getter-shaped false enumerators


def t_annotations() -> None:
    tr = parse_transition("spec@SafeSpec", MODES, "<t>")
    assert tr.kind == "spec" and tr.scope == frozenset({"SafeSpec"})
    try:
        parse_transition("bogus", MODES, "<t>")
    except AnnotationError:
        pass
    else:
        raise AssertionError("bad transition kind accepted")
    try:
        parse_transition("spec@NoSuchMode", MODES, "<t>")
    except AnnotationError:
        pass
    else:
        raise AssertionError("unknown mode accepted")


def t_declarations() -> None:
    model = _parse(DECL_SNIPPET, MODES)
    line = model.classes["unxpec::Line"]
    assert line["speculative"].spec_state
    assert line["installer"].spec_state
    assert not line["committed"].spec_state
    buf = model.functions["unxpec::Buffer::install"]
    assert buf.transitions and buf.transitions[0].kind == "spec"
    assert model.functions["unxpec::Buffer::undo"].rollbacks


def t_mutations() -> None:
    model = _parse(BODY_SNIPPET, MODES)
    install = model.functions["unxpec::Buffer::install"]
    muts = {(cls, name) for cls, name, _ in install.mutations}
    assert ("unxpec::Line", "speculative") in muts, muts
    # The one that historically slipped through: `]` before `|=`.
    assert ("unxpec::Buffer", "mask_") in muts, muts
    helper = model.functions["unxpec::Buffer::helper"]
    hmuts = {(cls, name) for cls, name, _ in helper.mutations}
    assert ("unxpec::Line", "installer") in hmuts, hmuts


def t_param_binding() -> None:
    text = """
namespace unxpec {
class Set {
  public:
    unsigned oldest(const std::vector<int> &set, unsigned n = 0) const;
    void each(std::function<void(int &)> fn, int *out, Visit &&visit);
    static void grow(std::vector<int> &set);
};
}  // namespace unxpec
"""
    model = _parse(text, MODES)
    oldest = model.functions["unxpec::Set::oldest"]
    assert oldest.signatures == {(True, ("cref", "val"))}, oldest.signatures
    assert oldest.binds_read_only(0) and oldest.binds_read_only(1)
    assert not oldest.binds_read_only(2)  # no such parameter
    each = model.functions["unxpec::Set::each"]
    assert each.signatures == {(False, ("val", "ref", "ref"))}
    assert not any(each.binds_read_only(i) for i in range(3))
    assert not model.functions["unxpec::Set::grow"].binds_read_only(0)


def t_closure() -> None:
    model = _parse(BODY_SNIPPET, MODES)
    graph = cg.CallGraph(model)
    writes, _ = cg.write_set(graph, model, "SafeSpec")
    # helper() is reached from the spec transition, so installer is
    # in the write-set even though helper itself is unannotated.
    assert "Line::installer" in writes, sorted(writes)
    assert "Buffer::mask_" in writes, sorted(writes)
    undos, _ = cg.undo_set(graph, model, "SafeSpec")
    # undo() is scoped to Cleanup_FOR_L1 only — SafeSpec gets nothing.
    assert not undos, sorted(undos)
    undos_l1, _ = cg.undo_set(graph, model, "Cleanup_FOR_L1")
    assert "Line::speculative" in undos_l1, sorted(undos_l1)


def t_end_to_end_gate() -> None:
    model = _parse(BODY_SNIPPET, MODES)
    res = run_checks(model, Baseline({}, "<none>"), only={"undo"})
    missing = {
        f.where for f in res.findings
        if f.check == "undo-completeness"
    }
    # Cleanup_FOR_L1 restores speculative but not installer/mask_;
    # SafeSpec has no rollback at all; UnsafeBaseline is exempt.
    assert "Cleanup_FOR_L1:Line::installer" in missing, missing
    assert "SafeSpec:Line::speculative" in missing, missing
    assert not any(w.startswith("UnsafeBaseline:") for w in missing)


def t_determinism() -> None:
    model = _parse(UNORDERED_SNIPPET, MODES)
    rules = {d.rule for d in model.rule_findings}
    assert "unordered-iteration" in rules, rules


def t_token_rules() -> None:
    facts = fb.lint_file("src/sim/mini.cc", TOKEN_SNIPPET)
    found = {(f.rule, f.line) for f in facts.findings}
    assert found == {("raw-new-delete", 12), ("wall-clock", 13)}, found
    assert facts.unordered_names == {"index_"}, facts.unordered_names
    assert facts.walks == [("index_", 14)], facts.walks
    assert fb.include_guard("src/cpu/rob.hh") == "UNXPEC_CPU_ROB_HH"
    assert (
        fb.include_guard("bench/pdf_figure.hh")
        == "UNXPEC_BENCH_PDF_FIGURE_HH"
    )


def t_suppressions() -> None:
    model = _parse(SUPPRESS_SNIPPET, MODES)
    assert model.suppressed("steady-alloc", "<selftest>", 4)
    assert model.suppressed("steady-alloc", "<selftest>", 5)
    assert not model.suppressed("steady-alloc", "<selftest>", 6)
    assert not model.suppressed("wall-clock", "<selftest>", 4)


def t_baseline() -> None:
    try:
        Baseline({"undo-completeness": [{"mode": "*"}]}, "<t>")
    except BaselineError:
        pass
    else:
        raise AssertionError("missing 'why' accepted")
    b = Baseline(
        {"undo-completeness": [
            {"mode": "*", "field": "Line::installer", "why": "ok"},
        ]},
        "<t>",
    )
    assert b.covers_undo("SafeSpec", "Line::installer")
    assert not b.covers_undo("SafeSpec", "Line::speculative")
    assert not b.unused()


TESTS: List[Tuple[str, Callable[[], None]]] = [
    ("lexer", t_lexer),
    ("mode-collection", t_modes),
    ("annotation-parsing", t_annotations),
    ("declaration-pass", t_declarations),
    ("mutation-detection", t_mutations),
    ("mode-gated-closure", t_closure),
    ("undo-gate-end-to-end", t_end_to_end_gate),
    ("determinism-rules", t_determinism),
    ("token-rules", t_token_rules),
    ("param-binding", t_param_binding),
    ("suppressions", t_suppressions),
    ("baseline", t_baseline),
]


def run() -> int:
    failed = 0
    for name, fn in TESTS:
        try:
            fn()
        except Exception:  # noqa: BLE001 — report, keep going
            failed += 1
            print(f"selftest FAIL {name}")
            traceback.print_exc()
        else:
            print(f"selftest ok   {name}")
    print(
        f"selftest: {len(TESTS) - failed}/{len(TESTS)} passed"
    )
    return 1 if failed else 0
