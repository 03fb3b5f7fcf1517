"""Tests for reaching definitions, liveness and def-use chains."""

from __future__ import annotations

from repro.cfg.builder import build_cfg
from repro.dataflow.defuse import def_use_chains
from repro.dataflow.liveness import live_variables
from repro.dataflow.reaching import INITIAL, may_aliases, reaching_definitions
from repro.lang.parser import parse_function


def analyzed(source: str, entry_vars=None):
    fn = parse_function(source)
    cfg = build_cfg(fn.body)
    stmts = {s.sid: s for s in fn.stmts()}
    return fn, cfg, stmts


class TestReachingDefinitions:
    def test_strong_update_kills(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = 1\n    x = 2\n    y = x\n")
        s1, s2, s3 = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", s1.sid) not in in_facts[s3.sid]
        assert ("x", s2.sid) in in_facts[s3.sid]

    def test_weak_update_preserves(self):
        fn, cfg, stmts = analyzed(
            "def f(a, d):\n    d = {}\n    d[a] = 1\n    y = d\n"
        )
        init, weak, read = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"a", "d"})
        # Both the dict creation and the element store reach the read.
        assert ("d", init.sid) in in_facts[read.sid]
        assert ("d", weak.sid) in in_facts[read.sid]

    def test_branch_merges(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    if a:\n        x = 1\n    else:\n        x = 2\n    y = x\n"
        )
        then_def = fn.body[0].then[0]
        else_def = fn.body[0].orelse[0]
        read = fn.body[1]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", then_def.sid) in in_facts[read.sid]
        assert ("x", else_def.sid) in in_facts[read.sid]

    def test_initial_defs_for_entry_vars(self):
        fn, cfg, stmts = analyzed("def f(a):\n    y = a\n")
        read = fn.body[0]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("a", INITIAL) in in_facts[read.sid]

    def test_loop_carried_definition(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    x = 0\n    while a:\n        x = x + 1\n        a -= 1\n    return x\n"
        )
        init = fn.body[0]
        loop_def = fn.body[1].body[0]
        ret = fn.body[2]
        in_facts, _ = reaching_definitions(cfg, stmts, {"a"})
        assert ("x", init.sid) in in_facts[ret.sid]
        assert ("x", loop_def.sid) in in_facts[ret.sid]
        # The loop body read sees its own definition from prior iterations.
        assert ("x", loop_def.sid) in in_facts[loop_def.sid]


class TestMayAliases:
    def test_classes_close_over_copies(self):
        fn, _, stmts = analyzed(
            "def f(p, d):\n    q = p\n    r, s = q, d\n    t = d if p else q\n    x = 1\n"
        )
        aliases = may_aliases(stmts.values())
        assert aliases["p"] == {"p", "q", "r", "t", "s", "d"}
        assert "x" not in aliases

    def test_store_through_copy_defines_original(self):
        fn, cfg, stmts = analyzed(
            "def f(p):\n    q = p\n    q.dport = 7\n    send_packet(p)\n"
        )
        _, store, send = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"p"})
        assert ("p", store.sid) in in_facts[send.sid]
        # Weak: the incoming definition survives the store.
        assert ("p", INITIAL) in in_facts[send.sid]

    def test_rebinding_a_copy_does_not_define_the_original(self):
        fn, cfg, stmts = analyzed(
            "def f(p):\n    q = p\n    q = 5\n    send_packet(p)\n"
        )
        _, rebind, send = fn.body
        in_facts, _ = reaching_definitions(cfg, stmts, {"p"})
        assert ("p", rebind.sid) not in in_facts[send.sid]


class TestLiveness:
    def test_dead_store(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = 1\n    x = 2\n    return x\n")
        s1 = fn.body[0]
        live_out, live_in = live_variables(cfg, stmts)
        assert "x" not in live_out[s1.sid]

    def test_condition_keeps_variable_live(self):
        fn, cfg, stmts = analyzed(
            "def f(a):\n    x = 1\n    if a:\n        return x\n    return 0\n"
        )
        s1 = fn.body[0]
        live_out, _ = live_variables(cfg, stmts)
        assert "x" in live_out[s1.sid]

    def test_live_out_exit_respected(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n")
        s1 = fn.body[0]
        live_out_without, _ = live_variables(cfg, stmts)
        live_out_with, _ = live_variables(cfg, stmts, {"x"})
        assert "x" not in live_out_without[s1.sid]
        assert "x" in live_out_with[s1.sid]


class TestDefUse:
    def test_simple_chain(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n    y = x\n")
        s1, s2 = fn.body
        chains = def_use_chains(cfg, stmts, {"a"})
        assert chains.def_sites(s2.sid, "x") == {s1.sid}
        assert chains.data_preds(s2.sid) == {s1.sid}

    def test_initial_excluded_from_data_preds(self):
        fn, cfg, stmts = analyzed("def f(a):\n    y = a\n")
        s1 = fn.body[0]
        chains = def_use_chains(cfg, stmts, {"a"})
        assert chains.data_preds(s1.sid) == set()
        assert INITIAL in chains.def_sites(s1.sid, "a")

    def test_uses_of_def_forward_view(self):
        fn, cfg, stmts = analyzed("def f(a):\n    x = a\n    y = x\n    z = x\n")
        s1, s2, s3 = fn.body
        chains = def_use_chains(cfg, stmts, {"a"})
        uses = {u for u, _ in chains.uses_of_def(s1.sid)}
        assert uses == {s2.sid, s3.sid}

    def test_pseudo_edges_do_not_leak_defs(self):
        # A def before `return` must not reach code after the return
        # through the Ball–Horwitz pseudo edge.
        fn, cfg, stmts = analyzed(
            "def f(a):\n    if a:\n        x = 1\n        return x\n    x = 2\n    return x\n"
        )
        then_def = fn.body[0].then[0]
        tail_ret = fn.body[2]
        chains = def_use_chains(cfg, stmts, {"a"})
        assert then_def.sid not in chains.def_sites(tail_ret.sid, "x")
