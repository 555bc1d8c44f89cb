"""Seeded random MiniC++ program generator.

Emits valid MiniC++ translation units exercising the language surface the
Concord frontend supports: classes with pointer/scalar fields, helper
methods, virtual calls through a small hierarchy, bounded ``for`` loops,
``if``/``else``, guarded integer division, float arithmetic, shared-array
reads/writes (pointers into SVM), reduction bodies with ``join``, an
overloaded free function plus a chain of class operators, ``&&`` /
``||`` conditions with ``continue`` in loops, and a stack array half the
private window large.

Programs are built from a JSON-serializable *spec tree* (plain dicts and
lists) wrapped in :class:`SourceProgram`, so the reducer
(:mod:`repro.fuzz.reduce`) can shrink a diverging program structurally and
the corpus (``tests/corpus/``) can check programs in verbatim.

Every random decision flows from one ``random.Random`` seeded by the
driver, so ``generate_source_program(random.Random(seed))`` is fully
deterministic.

Generation invariants (the oracle relies on these):

* all array indices are masked (``expr & (len-1)``) or the loop index
  ``i`` itself, so no access can leave its array;
* divisor operands are forced odd (``| 1``) — no division traps;
* shift amounts are masked to ``& 7``;
* loops have constant trip counts (1–6) — guaranteed termination; a loop
  with a short-circuit guard runs at most that many trips, counting the
  trip first so a ``continue`` cannot skip the count;
* reduction bodies start from ``acc = 0`` and combine with a commutative,
  associative operator (``+`` or ``^`` with wrapping semantics), so the
  CPU's per-core copies and the GPU's hierarchical tree produce identical
  results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

INT_VARS = ("x", "y", "z")
READONLY_VARS = ("i", "s0", "s1")
BIN_OPS = ("+", "-", "*", "&", "|", "^")
REL_OPS = ("<", "<=", ">", ">=", "==", "!=")
FLOAT_OPS = ("+", "-", "*")


@dataclass
class SourceProgram:
    """One generated program plus the host-side inputs that drive it."""

    seed: int
    construct: str  # "for" | "reduce"
    uses_virtual: bool
    uses_floats: bool
    uses_helper: bool
    n: int
    aux_len: int  # power of two (indices are masked with aux_len - 1)
    data: list
    aux: list
    fdata: list
    s0: int
    s1: int
    salt: int
    virtual_class: str  # "VBase" | "VDerived" (ignored unless uses_virtual)
    reduce_op: str  # "+" | "^" (ignored unless construct == "reduce")
    helper_expr: Optional[dict]
    stmts: list = field(default_factory=list)
    class_name: str = "FuzzBody"
    uses_overloads: bool = False
    uses_short_circuit: bool = False
    uses_stack: bool = False

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "construct": self.construct,
            "uses_virtual": self.uses_virtual,
            "uses_floats": self.uses_floats,
            "uses_helper": self.uses_helper,
            "n": self.n,
            "aux_len": self.aux_len,
            "data": list(self.data),
            "aux": list(self.aux),
            "fdata": list(self.fdata),
            "s0": self.s0,
            "s1": self.s1,
            "salt": self.salt,
            "virtual_class": self.virtual_class,
            "reduce_op": self.reduce_op,
            "helper_expr": self.helper_expr,
            "stmts": self.stmts,
            "class_name": self.class_name,
            "uses_overloads": self.uses_overloads,
            "uses_short_circuit": self.uses_short_circuit,
            "uses_stack": self.uses_stack,
        }

    @staticmethod
    def from_dict(doc: dict) -> "SourceProgram":
        return SourceProgram(**doc)

    # -- rendering --------------------------------------------------------

    @property
    def source(self) -> str:
        return render_source(self)


# -- expression / statement generation ----------------------------------------


def _gen_expr(rng, depth: int, vars_in_scope) -> dict:
    if depth >= 3 or rng.random() < 0.35:
        if rng.random() < 0.45:
            return {"k": "const", "v": rng.choice(
                [0, 1, 2, 3, 5, 7, 13, 100, -1, -7, 1 << 20, -(1 << 20)]
            )}
        return {"k": "var", "n": rng.choice(vars_in_scope)}
    roll = rng.random()
    if roll < 0.72:
        return {
            "k": "bin",
            "op": rng.choice(BIN_OPS),
            "a": _gen_expr(rng, depth + 1, vars_in_scope),
            "b": _gen_expr(rng, depth + 1, vars_in_scope),
        }
    if roll < 0.84:  # guarded division: divisor forced odd via `| 1`
        return {
            "k": "div",
            "op": rng.choice(["/", "%"]),
            "a": _gen_expr(rng, depth + 1, vars_in_scope),
            "b": _gen_expr(rng, depth + 1, vars_in_scope),
        }
    return {  # masked shift
        "k": "shift",
        "op": rng.choice(["<<", ">>"]),
        "a": _gen_expr(rng, depth + 1, vars_in_scope),
        "b": _gen_expr(rng, depth + 1, vars_in_scope),
    }


def _gen_cond(rng, vars_in_scope, short_circuit: bool = False) -> dict:
    """A comparison; with ``short_circuit``, four times in five two of
    them joined by ``&&`` or ``||``."""
    if short_circuit and rng.random() < 0.8:
        return {
            "k": "logic",
            "op": rng.choice(["&&", "||"]),
            "a": _gen_cond(rng, vars_in_scope),
            "b": _gen_cond(rng, vars_in_scope),
        }
    return {
        "k": "rel",
        "op": rng.choice(REL_OPS),
        "a": _gen_expr(rng, 1, vars_in_scope),
        "b": _gen_expr(rng, 1, vars_in_scope),
    }


def _gen_fexpr(rng, depth: int) -> dict:
    """Float expressions over fx and float literals (exact in f32)."""
    if depth >= 2 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return {"k": "fvar"}
        return {"k": "fconst", "v": rng.choice(
            [0.5, 1.5, 2.0, 0.25, 3.0, -1.5, 0.125]
        )}
    return {
        "k": "fbin",
        "op": rng.choice(FLOAT_OPS),
        "a": _gen_fexpr(rng, depth + 1),
        "b": _gen_fexpr(rng, depth + 1),
    }


def _gen_stmts(rng, program_flags: dict, depth: int, budget: list,
               loop_vars: tuple) -> list:
    """A statement list; ``budget`` is a one-element mutable countdown
    shared across the whole tree."""
    stmts = []
    count = rng.randint(1, 4 if depth == 0 else 3)
    vars_in_scope = INT_VARS + READONLY_VARS + loop_vars
    short = program_flags["uses_short_circuit"]
    for _ in range(count):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        roll = rng.random()
        if depth < 2 and roll < 0.14:
            loop_var = f"j{len(loop_vars)}"
            loop = {
                "k": "loop",
                "var": loop_var,
                "bound": rng.randint(1, 6),
                "body": _gen_stmts(rng, program_flags, depth + 1, budget,
                                   loop_vars + (loop_var,)),
            }
            if short:
                loop["guard"] = _gen_cond(rng, vars_in_scope + (loop_var,), True)
            stmts.append(loop)
        elif depth < 2 and roll < 0.30:
            stmt = {
                "k": "if",
                "cond": _gen_cond(rng, vars_in_scope, short),
                "then": _gen_stmts(rng, program_flags, depth + 1, budget,
                                   loop_vars),
                "else": (
                    _gen_stmts(rng, program_flags, depth + 1, budget, loop_vars)
                    if rng.random() < 0.5
                    else []
                ),
            }
            stmts.append(stmt)
        elif short and loop_vars and roll < 0.38:
            stmts.append({"k": "skip", "cond": _gen_cond(rng, vars_in_scope, True)})
        elif roll < 0.45:
            stmts.append({
                "k": "aux_read",
                "var": rng.choice(INT_VARS),
                "index": _gen_expr(rng, 1, vars_in_scope),
            })
        elif roll < 0.58:
            stmts.append({
                "k": "aux_write",
                "index": _gen_expr(rng, 1, vars_in_scope),
                "expr": _gen_expr(rng, 1, vars_in_scope),
            })
        elif program_flags["uses_helper"] and roll < 0.66:
            stmts.append({
                "k": "helper",
                "var": rng.choice(INT_VARS),
                "a": _gen_expr(rng, 2, vars_in_scope),
                "b": _gen_expr(rng, 2, vars_in_scope),
            })
        elif program_flags["uses_virtual"] and roll < 0.74:
            stmts.append({
                "k": "vcall",
                "var": rng.choice(INT_VARS),
                "arg": _gen_expr(rng, 2, vars_in_scope),
            })
        elif program_flags["uses_floats"] and roll < 0.82:
            stmts.append({"k": "fassign", "expr": _gen_fexpr(rng, 0)})
        else:
            stmts.append({
                "k": "assign",
                "var": rng.choice(INT_VARS),
                "expr": _gen_expr(rng, 0, vars_in_scope),
            })
    return stmts


def generate_source_program(rng, seed: int = 0,
                            force: Optional[dict] = None) -> SourceProgram:
    """Generate one program.  ``force`` optionally pins feature flags
    (e.g. ``{"uses_virtual": True}``) for targeted fuzzing."""
    force = force or {}
    flags = {
        "uses_virtual": rng.random() < 0.30,
        "uses_floats": rng.random() < 0.35,
        "uses_helper": rng.random() < 0.40,
        # only when forced: rolling them would change what every seed draws
        "uses_overloads": False,
        "uses_short_circuit": False,
        "uses_stack": False,
    }
    construct = "reduce" if rng.random() < 0.25 else "for"
    flags.update({k: v for k, v in force.items() if k in flags})
    construct = force.get("construct", construct)

    n = rng.randint(4, 9)
    aux_len = rng.choice([8, 16])
    budget = [rng.randint(4, 12)]
    stmts = _gen_stmts(rng, flags, 0, budget, ())
    helper_expr = None
    if flags["uses_helper"]:
        helper_expr = _gen_expr(rng, 1, ("a", "b"))
    extremes = [-(1 << 31), (1 << 31) - 1, 0, 1]
    data = [
        rng.choice(extremes) if rng.random() < 0.1 else rng.randint(-10**6, 10**6)
        for _ in range(n)
    ]
    aux = [rng.randint(-1000, 1000) for _ in range(aux_len)]
    fdata = [round(rng.uniform(-64.0, 64.0), 3) for _ in range(n)]
    return SourceProgram(
        seed=seed,
        construct=construct,
        uses_virtual=flags["uses_virtual"],
        uses_floats=flags["uses_floats"],
        uses_helper=flags["uses_helper"],
        n=n,
        aux_len=aux_len,
        data=data,
        aux=aux,
        fdata=fdata,
        s0=rng.randint(-100, 100),
        s1=rng.randint(-100, 100),
        salt=rng.randint(-50, 50),
        virtual_class=rng.choice(["VBase", "VDerived"]),
        reduce_op=rng.choice(["+", "^"]),
        helper_expr=helper_expr,
        stmts=stmts,
        uses_overloads=flags["uses_overloads"],
        uses_short_circuit=flags["uses_short_circuit"],
        uses_stack=flags["uses_stack"],
    )


# -- rendering ----------------------------------------------------------------


def render_expr(expr: dict) -> str:
    kind = expr["k"]
    if kind == "const":
        return str(expr["v"])
    if kind == "var":
        return expr["n"]
    if kind == "bin":
        return f"({render_expr(expr['a'])} {expr['op']} {render_expr(expr['b'])})"
    if kind == "div":
        return (
            f"({render_expr(expr['a'])} {expr['op']} "
            f"(({render_expr(expr['b'])} & 7) | 1))"
        )
    if kind == "shift":
        return (
            f"({render_expr(expr['a'])} {expr['op']} "
            f"({render_expr(expr['b'])} & 7))"
        )
    if kind in ("rel", "logic"):
        return f"({render_expr(expr['a'])} {expr['op']} {render_expr(expr['b'])})"
    if kind == "fvar":
        return "fx"
    if kind == "fconst":
        value = expr["v"]
        return f"{value}f"
    if kind == "fbin":
        return f"({render_expr(expr['a'])} {expr['op']} {render_expr(expr['b'])})"
    raise ValueError(f"unknown expr kind {kind!r}")


def render_stmt(stmt: dict, mask: int, indent: int) -> list:
    pad = "  " * indent
    kind = stmt["k"]
    if kind == "assign":
        return [f"{pad}{stmt['var']} = {render_expr(stmt['expr'])};"]
    if kind == "aux_read":
        return [
            f"{pad}{stmt['var']} = aux[{render_expr(stmt['index'])} & {mask}];"
        ]
    if kind == "aux_write":
        return [
            f"{pad}aux[{render_expr(stmt['index'])} & {mask}] = "
            f"{render_expr(stmt['expr'])};"
        ]
    if kind == "helper":
        return [
            f"{pad}{stmt['var']} = helper({render_expr(stmt['a'])}, "
            f"{render_expr(stmt['b'])});"
        ]
    if kind == "vcall":
        return [f"{pad}{stmt['var']} = obj->vf({render_expr(stmt['arg'])});"]
    if kind == "fassign":
        return [f"{pad}fx = {render_expr(stmt['expr'])};"]
    if kind == "if":
        lines = [f"{pad}if {render_expr(stmt['cond'])} {{"]
        for inner in stmt["then"]:
            lines.extend(render_stmt(inner, mask, indent + 1))
        if stmt["else"]:
            lines.append(f"{pad}}} else {{")
            for inner in stmt["else"]:
                lines.extend(render_stmt(inner, mask, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if kind == "skip":
        return [f"{pad}if {render_expr(stmt['cond'])} {{", f"{pad}  continue;", f"{pad}}}"]
    if kind == "loop":
        var = stmt["var"]
        if "guard" in stmt:  # count the trip first: a continue skips nothing
            lines = [
                f"{pad}for (int {var} = 0; {var} < {stmt['bound']} && "
                f"{render_expr(stmt['guard'])}; ) {{",
                f"{pad}  {var}++;",
            ]
        else:
            lines = [
                f"{pad}for (int {var} = 0; {var} < {stmt['bound']}; {var}++) {{"
            ]
        for inner in stmt["body"]:
            lines.extend(render_stmt(inner, mask, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise ValueError(f"unknown stmt kind {kind!r}")


VIRTUAL_CLASSES = """
class VBase {
public:
  int salt;
  virtual int vf(int a) { return a + salt; }
};

class VDerived : public VBase {
public:
  virtual int vf(int a) { return ((a ^ salt) * 3) - 7; }
};
"""


#: Half the 1 MiB private window: a lane's first reads must see zeros, and
#: a third lane that did not start over at the window's base runs off it.
#: The top slot is read first and written last, so a window handed on
#: without zeroing shows the lane before.
STACK_WORDS = 1 << 17
STACK_USES = (
    f"    int stk[{STACK_WORDS}];",
    f"    x = x + stk[{STACK_WORDS - 1}] + stk[(i * 5 + y) & {STACK_WORDS - 1}];",
    f"    stk[i & {STACK_WORDS - 1}] = x;",
    f"    x = x ^ stk[(i + z) & {STACK_WORDS - 1}];",
    f"    stk[{STACK_WORDS - 1}] = x | 1;",
)


#: ``pick`` overloads on its pointer's pointee, and its ``OV*`` overload
#: returns a class an operator is called on: which one a call means must
#: not depend on the order they are declared in.  The ``OV*`` overload
#: takes a third argument so that a resolver picking by arity alone still
#: compiles in either order and shows up in the heap, not as a rejection.
OVERLOADED_CLASS = """
class OV {
public:
  int v;
  OV operator+(OV& o) { OV r; r.v = v + o.v; return r; }
  OV operator-(OV& o) { OV r; r.v = (v ^ o.v) * 3; return r; }
};
"""
OVERLOAD_SET = (
    "int* pick(int* p, int k) { return p + (k & 3); }",
    "float* pick(float* p, int k) { return p + (k & 3); }",
    "OV* pick(OV* p, int k, int m) { return p + ((k ^ m) & 3); }",
)
#: ``(A + B) - C``: an operator called on an operator's result
OVERLOAD_USES = (
    "    OV ov[4];",
    "    float fv[4];",
    "    for (int q = 0; q < 4; q++) {",
    "      ov[q].v = x + q * s0;",
    "      fv[q] = (float)((x + q * 37) & 255) * 0.5f;",
    "    }",
    "    OV ow = *pick(ov, y, z) + ov[1] - *pick(ov, z, s1);",
    "    x = (x ^ ow.v) + (*pick(aux, i + z) > y ? 5 : -3) + (*pick(fv, i) > 64.0f ? 7 : 1);",
)


def render_source(program: SourceProgram, reverse_overloads: bool = False) -> str:
    mask = program.aux_len - 1
    parts = []
    if program.uses_virtual:
        parts.append(VIRTUAL_CLASSES)
    if program.uses_overloads:
        parts.append(OVERLOADED_CLASS)
        parts.extend(reversed(OVERLOAD_SET) if reverse_overloads else OVERLOAD_SET)
    fields = ["  int* data;", "  int* aux;"]
    if program.uses_floats:
        fields.append("  float* fdata;")
    fields.extend(["  int s0;", "  int s1;"])
    if program.construct == "reduce":
        fields.append("  int acc;")
    if program.uses_virtual:
        fields.append("  VBase* obj;")
    body_lines = ["    int x = data[i];", "    int y = s0;", "    int z = s1;"]
    if program.uses_floats:
        body_lines.append("    float fx = fdata[i];")
    if program.uses_stack:
        body_lines.extend(STACK_USES)
    for stmt in program.stmts:
        body_lines.extend(render_stmt(stmt, mask, 2))
    if program.uses_overloads:
        body_lines.extend(OVERLOAD_USES)
    if program.uses_floats:
        body_lines.append("    fdata[i] = fx;")
    if program.construct == "reduce":
        body_lines.append(f"    acc = acc {program.reduce_op} ((x ^ y) + z);")
        body_lines.append("    data[i] = x;")
    else:
        body_lines.append("    data[i] = (x ^ y) + z;")
    methods = []
    if program.uses_helper and program.helper_expr is not None:
        methods.append(
            "  int helper(int a, int b) { return "
            f"{render_expr(program.helper_expr)}; }}"
        )
    methods.append("  void operator()(int i) {")
    methods.extend(body_lines)
    methods.append("  }")
    if program.construct == "reduce":
        methods.append(
            f"  void join({program.class_name}& other) "
            f"{{ acc = acc {program.reduce_op} other.acc; }}"
        )
    parts.append(
        f"class {program.class_name} {{\npublic:\n"
        + "\n".join(fields)
        + "\n\n"
        + "\n".join(methods)
        + "\n};\n"
    )
    return "\n".join(parts)
