"""Printer/parser round-trip and error-handling tests."""

import pytest

from repro.errors import IRParseError
from repro.ir import (
    DebugLoc,
    F32,
    I8,
    I32,
    IRBuilder,
    Module,
    VOID,
    parse_module,
    print_module,
    ptr,
    verify_module,
)
from repro.ir.instructions import AtomicOp, CacheOp, CmpPred, Load, Opcode
from repro.ir.types import AddressSpace
from repro.ir.values import GlobalVariable


def _rich_module() -> Module:
    """One module exercising every instruction the printer supports."""
    m = Module("rich", target="nvptx")
    m.add_string("entry")
    m.add_global(GlobalVariable("tile", F32, 64, AddressSpace.SHARED))
    m.add_global(GlobalVariable("lut", I32, 4, AddressSpace.GLOBAL,
                                initializer=[1, 2, 3, 4]))
    hook = m.declare_function(
        "Record", VOID,
        [(ptr(I8), "a"), (I32, "b")], kind="hook",
    )
    fn = m.add_function(
        "k", VOID, [(ptr(F32), "x"), (I32, "n"), (F32, "a")], kind="kernel"
    )
    entry = fn.add_block("entry")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")

    b = IRBuilder.at_end(entry)
    b.set_loc(DebugLoc("k.py", 4, 9))
    slot = b.alloca(I32, 2)
    b.store(b.i32(0), slot)
    i0 = b.load(slot, "i0")
    cond = b.icmp(CmpPred.LT, i0, fn.args[1])
    b.cond_br(cond, body, exit_)

    b.position_at_end(body)
    phi = b.phi(F32, "acc")
    gep = b.gep(fn.args[0], i0)
    v = b.load(gep, "v", cache_op=CacheOp.CACHE_GLOBAL)
    raw = b.bitcast(gep, ptr(I8))
    b.call(hook, [raw, b.i32(32)])
    s = b.fadd(phi, v)
    phi.add_incoming(b.f32(0.0), entry)
    phi.add_incoming(s, body)
    conv = b.sitofp(i0, F32)
    sel = b.select(b.fcmp(CmpPred.GT, s, conv), s, conv)
    old = b.atomic_rmw(AtomicOp.ADD, gep, sel)
    c2 = b.fcmp(CmpPred.LT, old, fn.args[2])
    b.cond_br(c2, body, exit_)

    b.position_at_end(exit_)
    b.ret()
    return m


class TestRoundTrip:
    def test_rich_module_roundtrips(self):
        m = _rich_module()
        text = print_module(m)
        m2 = parse_module(text)
        assert print_module(m2) == text

    def test_parsed_module_structure(self):
        m2 = parse_module(print_module(_rich_module()))
        fn = m2.get_function("k")
        assert fn.kind == "kernel"
        assert [b.name for b in fn.blocks] == ["entry", "body", "exit"]
        assert m2.get_function("Record").kind == "hook"
        assert m2.globals["tile"].addrspace == AddressSpace.SHARED
        assert m2.globals["lut"].initializer == [1, 2, 3, 4]

    def test_debug_locs_roundtrip(self):
        m2 = parse_module(print_module(_rich_module()))
        entry = m2.get_function("k").entry
        assert entry.instructions[0].debug_loc == DebugLoc("k.py", 4, 9)

    def test_cache_op_roundtrip(self):
        m2 = parse_module(print_module(_rich_module()))
        body = m2.get_function("k").block("body")
        loads = [i for i in body.instructions if isinstance(i, Load)]
        assert loads[0].cache_op == CacheOp.CACHE_GLOBAL

    def test_parsed_module_verifies(self):
        verify_module(parse_module(print_module(_rich_module())))

    def test_frontend_output_roundtrips(self, fresh_module):
        text = print_module(fresh_module)
        assert print_module(parse_module(text)) == text


class TestParseErrors:
    def test_undefined_value(self):
        text = (
            '; module m\n\ntarget = "nvptx"\n\n'
            "define kernel void @k() {\n"
            "entry:\n  ret i32 %nope\n}\n"
        )
        with pytest.raises(IRParseError):
            parse_module(text)

    def test_unknown_instruction(self):
        text = (
            '; module m\n\ntarget = "nvptx"\n\n'
            "define kernel void @k() {\nentry:\n  frobnicate\n}\n"
        )
        with pytest.raises(IRParseError):
            parse_module(text)

    def test_instruction_outside_block(self):
        text = (
            '; module m\n\ntarget = "nvptx"\n\n'
            "define kernel void @k() {\n  ret void\n}\n"
        )
        with pytest.raises(IRParseError):
            parse_module(text)

    def test_corrupt_top_level(self):
        with pytest.raises(IRParseError):
            parse_module("; module m\nwat is this\n")

    @pytest.mark.parametrize("old,new", [
        ("%n.addr = alloca", "%n.addralloca"),
        ('target = "nvptx"', "target"),
        ("br label %if.end", "br label"),
    ], ids=["ssa-without-equals", "bare-target", "br-without-block"])
    def test_mutated_app_module_raises_typed_error(self, old, new):
        # Each mutation once escaped as a ValueError / IndexError.
        from repro.apps import build_app
        from repro.frontend import compile_kernels

        app = build_app("nn")
        lines = print_module(
            compile_kernels(list(app.kernels), "nn")
        ).splitlines()
        index = next(i for i, line in enumerate(lines) if old in line)
        lines[index] = lines[index].replace(old, new, 1)
        with pytest.raises(IRParseError) as exc:
            parse_module("\n".join(lines))
        assert exc.value.line == index + 1
