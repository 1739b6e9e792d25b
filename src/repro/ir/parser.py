"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

This gives the toolchain a persistent on-disk form: instrumented device
modules can be dumped, inspected and re-loaded, the way one inspects
LLVM ``.ll`` files around ``opt``. The grammar is exactly the printer's
output language, parsed with a small hand-written recursive scanner.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import IRParseError
from repro.ir.debuginfo import DebugLoc
from repro.ir.instructions import (
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    Br,
    CacheOp,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import AddressSpace, IntType, Type, BOOL, VOID, parse_type
from repro.ir.values import Constant, GlobalString, GlobalVariable, Value

_DBG_RE = re.compile(r'\s*!dbg\s+"([^"]*)":(\d+):(\d+)\s*$')
_HEADER_RE = re.compile(
    r"^(define|declare)\s+(\w+)\s+(.+?)\s+@([\w.$-]+)\((.*)\)\s*(\{)?\s*$"
)
_TARGET_RE = re.compile(r'^target\s*=\s*"([^"]*)"$')
_STRING_RE = re.compile(r'^@([\w.$-]+)\s*=\s*constant\s+c"(.*)"\s*$')
_GLOBAL_RE = re.compile(
    r"^@([\w.$-]+)\s*=\s*global\s+(.+?),\s*count\s+(\d+),\s*addrspace\s+(\d+)"
    r"(?:\s+init\s+\[(.*)\])?\s*$"
)
_OPCODES = {op.value for op in Opcode}
_CASTS = {k.value for k in CastKind}


def _unescape(text: str) -> str:
    return text.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


class _FunctionParser:
    """Parses one function body; resolves names lazily via placeholders."""

    def __init__(self, module: Module, fn: Function):
        self.module = module
        self.fn = fn
        self.values: Dict[str, Value] = {a.name: a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        # phi operands may reference later definitions; resolved in finish()
        self._phi_fixups: List[Tuple[Phi, List[Tuple[str, str, int]]]] = []

    def get_block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            block = BasicBlock(name, self.fn)
            self.blocks[name] = block
        return self.blocks[name]

    def operand(self, type_: Type, token: str, lineno: int) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            if name not in self.values:
                raise IRParseError(f"use of undefined value %{name}", lineno)
            return self.values[name]
        if token.startswith("@"):
            name = token[1:]
            if name in self.module.strings:
                return self.module.strings[name]
            if name in self.module.globals:
                return self.module.globals[name]
            raise IRParseError(f"use of unknown global @{name}", lineno)
        if token == "true":
            return Constant(BOOL, True)
        if token == "false":
            return Constant(BOOL, False)
        if token == "null":
            return Constant(type_, 0)
        try:
            if type_.is_float:
                return Constant(type_, float(token))
            return Constant(type_, int(token))
        except ValueError:
            raise IRParseError(f"bad operand {token!r}", lineno) from None

    def define(self, name: str, value: Value, lineno: int) -> None:
        if name in self.values:
            raise IRParseError(f"redefinition of %{name}", lineno)
        value.name = name
        self.values[name] = value
        self.fn._taken_names.add(name)

    def finish(self) -> None:
        """Resolve deferred phi operands (loop back edges)."""
        for phi, arms in self._phi_fixups:
            for value_token, block_name, lineno in arms:
                value = self.operand(phi.type, value_token, lineno)
                phi.add_incoming(value, self.get_block(block_name))


def _split_args(text: str) -> List[str]:
    """Split a comma-separated argument list, respecting brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _typed_operand(fp: _FunctionParser, text: str, lineno: int) -> Value:
    text = text.strip()
    # "<type> <ref>"
    idx = text.rfind(" ")
    if idx < 0:
        raise IRParseError(f"expected 'type value', got {text!r}", lineno)
    type_ = parse_type(text[:idx])
    return fp.operand(type_, text[idx + 1:], lineno)


def _parse_instruction(
    fp: _FunctionParser, line: str, lineno: int
) -> Instruction:
    loc: Optional[DebugLoc] = None
    m = _DBG_RE.search(line)
    if m:
        loc = DebugLoc(m.group(1), int(m.group(2)), int(m.group(3)))
        line = line[: m.start()]
    line = line.strip()

    result_name = None
    if line.startswith("%"):
        eq = line.find("=")
        if eq < 0:
            raise IRParseError(f"expected '%name = ...', got {line!r}", lineno)
        result_name = line[1:eq].strip()
        line = line[eq + 1:].strip()

    inst = _parse_rhs(fp, line, lineno, result_name)
    inst.debug_loc = loc
    if result_name is not None and not inst.type.is_void:
        fp.define(result_name, inst, lineno)
    return inst


def _parse_rhs(
    fp: _FunctionParser, line: str, lineno: int, result_name: Optional[str]
) -> Instruction:
    head, _, rest = line.partition(" ")
    rest = rest.strip()

    if head == "alloca":
        m = re.match(r"^(.+?),\s*count\s+(\d+)$", rest)
        if not m:
            raise IRParseError(f"bad alloca: {line!r}", lineno)
        return Alloca(parse_type(m.group(1)), int(m.group(2)), result_name or "")

    if head.startswith("load"):
        cache = _cache_op(head, "load", lineno)
        parts = _split_args(rest)
        if len(parts) != 2:
            raise IRParseError(f"bad load: {line!r}", lineno)
        pointer = _typed_operand(fp, parts[1], lineno)
        return Load(pointer, result_name or "", cache)

    if head.startswith("store"):
        cache = _cache_op(head, "store", lineno)
        parts = _split_args(rest)
        if len(parts) != 2:
            raise IRParseError(f"bad store: {line!r}", lineno)
        value = _typed_operand(fp, parts[0], lineno)
        pointer = _typed_operand(fp, parts[1], lineno)
        return Store(value, pointer, cache)

    if head == "getelementptr":
        parts = _split_args(rest)
        base = _typed_operand(fp, parts[0], lineno)
        index = _typed_operand(fp, parts[1], lineno)
        return GetElementPtr(base, index, result_name or "")

    if head in _OPCODES:
        m = re.match(r"^(.+?)\s+(\S+),\s*(\S+)$", rest)
        if not m:
            raise IRParseError(f"bad binop: {line!r}", lineno)
        type_ = parse_type(m.group(1))
        lhs = fp.operand(type_, m.group(2), lineno)
        rhs = fp.operand(type_, m.group(3), lineno)
        return BinOp(Opcode(head), lhs, rhs, result_name or "")

    if head in ("icmp", "fcmp"):
        m = re.match(r"^(\w+)\s+(.+?)\s+(\S+),\s*(\S+)$", rest)
        if not m:
            raise IRParseError(f"bad {head}: {line!r}", lineno)
        pred = CmpPred(m.group(1))
        type_ = parse_type(m.group(2))
        lhs = fp.operand(type_, m.group(3), lineno)
        rhs = fp.operand(type_, m.group(4), lineno)
        cls = ICmp if head == "icmp" else FCmp
        return cls(pred, lhs, rhs, result_name or "")

    if head in _CASTS:
        m = re.match(r"^(.+?)\s+(\S+)\s+to\s+(.+)$", rest)
        if not m:
            raise IRParseError(f"bad cast: {line!r}", lineno)
        from_type = parse_type(m.group(1))
        value = fp.operand(from_type, m.group(2), lineno)
        return Cast(CastKind(head), value, parse_type(m.group(3)), result_name or "")

    if head == "select":
        parts = _split_args(rest)
        cond = _typed_operand(fp, parts[0], lineno)
        iftrue = _typed_operand(fp, parts[1], lineno)
        iffalse = _typed_operand(fp, parts[2], lineno)
        return Select(cond, iftrue, iffalse, result_name or "")

    if head == "atomicrmw":
        m = re.match(r"^(\w+)\s+(.*)$", rest)
        op = AtomicOp(m.group(1))
        parts = _split_args(m.group(2))
        pointer = _typed_operand(fp, parts[0], lineno)
        value = _typed_operand(fp, parts[1], lineno)
        return AtomicRMW(op, pointer, value, result_name or "")

    if head == "call":
        m = re.match(r"^(.+?)\s+@([\w.$-]+)\((.*)\)$", rest)
        if not m:
            raise IRParseError(f"bad call: {line!r}", lineno)
        callee = fp.module.get_function(m.group(2))
        args = [
            _typed_operand(fp, part, lineno)
            for part in _split_args(m.group(3))
        ]
        return Call(callee, args, result_name or "")

    if head == "br":
        if rest.startswith("label"):
            m = re.match(r"^label\s+%(\S+)$", rest)
            if not m:
                raise IRParseError(f"bad br: {line!r}", lineno)
            return Br(fp.get_block(m.group(1)))
        m = re.match(r"^i1\s+(\S+),\s*label\s+%(\S+),\s*label\s+%(\S+)$", rest)
        if not m:
            raise IRParseError(f"bad br: {line!r}", lineno)
        cond = fp.operand(BOOL, m.group(1), lineno)
        return CondBr(cond, fp.get_block(m.group(2)), fp.get_block(m.group(3)))

    if head == "ret":
        if rest == "void":
            return Ret(None)
        return Ret(_typed_operand(fp, rest, lineno))

    if head == "phi":
        m = re.match(r"^(.+?)\s+(\[.*\])$", rest)
        if not m:
            raise IRParseError(f"bad phi: {line!r}", lineno)
        phi = Phi(parse_type(m.group(1)), result_name or "")
        arms = []
        for pair in _split_args(m.group(2)):
            pm = re.match(r"^\[\s*(\S+),\s*%(\S+)\s*\]$", pair.strip())
            if not pm:
                raise IRParseError(f"bad phi arm: {pair!r}", lineno)
            arms.append((pm.group(1), pm.group(2), lineno))
        # Phi operands may reference values defined later (loop back
        # edges); resolve them after the whole body has been parsed.
        fp._phi_fixups.append((phi, arms))
        return phi

    raise IRParseError(f"unknown instruction: {line!r}", lineno)


def _cache_op(head: str, base: str, lineno: int) -> CacheOp:
    if head == base:
        return CacheOp.CACHE_ALL
    suffix = head[len(base):]
    if not suffix.startswith("."):
        raise IRParseError(f"bad cache operator in {head!r}", lineno)
    return CacheOp(suffix[1:])


def parse_module(text: str) -> Module:
    """Parse a module from its printed form."""
    lines = text.splitlines()
    module: Optional[Module] = None
    i = 0
    pending_bodies: List[Tuple[Function, int, int]] = []  # (fn, start, end)

    # First line(s): module header.
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("; module "):
            module = Module(line[len("; module "):].strip())
            continue
        if line.startswith("target"):
            if module is None:
                raise IRParseError("target before module header", i)
            m = _TARGET_RE.match(line)
            if not m:
                raise IRParseError(f"bad target line: {line!r}", i)
            module.target = m.group(1)
            continue
        i -= 1
        break
    if module is None:
        module = Module("parsed")

    # Scan top-level entities; collect function bodies for a second pass so
    # calls can reference functions defined later.
    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith(";"):
            i += 1
            continue
        m = _STRING_RE.match(line)
        if m:
            s = GlobalString(m.group(1), _unescape(m.group(2)))
            module.strings[s.name] = s
            i += 1
            continue
        m = _GLOBAL_RE.match(line)
        if m:
            init = None
            if m.group(5) is not None:
                element = parse_type(m.group(2))
                conv = float if element.is_float else int
                init = [conv(tok) for tok in _split_args(m.group(5))]
            var = GlobalVariable(
                m.group(1),
                parse_type(m.group(2)),
                int(m.group(3)),
                AddressSpace(int(m.group(4))),
                init,
            )
            module.globals[var.name] = var
            i += 1
            continue
        m = _HEADER_RE.match(line)
        if m:
            is_def = m.group(1) == "define"
            kind, ret_text, name, params_text = (
                m.group(2),
                m.group(3),
                m.group(4),
                m.group(5),
            )
            params = []
            for p in _split_args(params_text):
                idx = p.rfind("%")
                if idx < 0:
                    raise IRParseError(f"bad parameter {p!r}", i + 1)
                params.append((parse_type(p[:idx]), p[idx + 1:].strip()))
            fn = module.add_function(name, parse_type(ret_text), params, kind)
            if is_def:
                start = i + 1
                depth = 1
                j = start
                while j < len(lines) and depth:
                    if lines[j].strip() == "}":
                        depth -= 1
                    j += 1
                pending_bodies.append((fn, start, j - 1))
                i = j
            else:
                i += 1
            continue
        raise IRParseError(f"unexpected top-level line: {line!r}", i + 1)

    for fn, start, end in pending_bodies:
        _parse_body(module, fn, lines, start, end)
    return module


def _parse_body(
    module: Module, fn: Function, lines: List[str], start: int, end: int
) -> None:
    fp = _FunctionParser(module, fn)
    current: Optional[BasicBlock] = None
    for lineno in range(start, end):
        raw = lines[lineno]
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if line.endswith(":") and not line.startswith("%"):
            current = fp.get_block(line[:-1])
            if current not in fn.blocks:
                fn.blocks.append(current)
                fn._taken_names.add(current.name)
            continue
        if current is None:
            raise IRParseError("instruction outside any block", lineno + 1)
        inst = _parse_instruction(fp, line, lineno + 1)
        inst.parent = current
        current.instructions.append(inst)
    fp.finish()
