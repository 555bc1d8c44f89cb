"""The lowering routes on the type of each operand *as lowered*.

A class-typed value is the object's address — an lvalue's storage or an
sret temporary — so ``+``, ``=``, ``[]``, ``.`` and ``return`` pick the
overloaded, struct-copy or scalar path from the operand they just lowered,
and overload resolution happens once, in ``Sema.resolve_overload``.  Every
program runs on both devices; expected values are computed here in Python.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from repro import minicpp
from repro.ir.types import F32, I32
from repro.minicpp import LowerError, Sema
from repro.runtime import ConcordRuntime, OptConfig, compile_source, ultrabook

DEVICES = pytest.mark.parametrize("on_cpu", [False, True], ids=["gpu", "cpu"])

V = """
class V {
public:
  float x;
  V operator+(V& o) { V r; r.x = x + o.x; return r; }
  V operator-(V& o) { V r; r.x = x - o.x; return r; }
  float operator[](int k) { return x + k; }
  float get() { return x; }
  EXTRA
};
"""

G_CLASS = "V* g(V* p, int k) { return p + k; }\n"
G_FLOAT = "float* g(float* p, int k) { return p + k; }\n"

BODY = """
class Body {
public:
  V* vs;
  float* out;
  void operator()(int i) { V v; v.x = 1.5f; STMT }
};
"""

XS = [0.5 * i + 3.0 for i in range(4)]


def run_v(source: str, on_cpu: bool) -> list:
    """``out`` after ``Body`` runs over ``vs[i].x = XS[i]``."""
    rt = ConcordRuntime(compile_source(source, OptConfig.gpu_all()), ultrabook())
    vs = rt.new_array("V", 4)
    out = rt.new_array(F32, 4)
    for i, x in enumerate(XS):
        vs[i].x = x
    body = rt.new("Body")
    body.vs, body.out = vs, out
    rt.parallel_for_hetero(4, body, on_cpu=on_cpu)
    return out.to_list()


def v_source(stmt: str, extra: str = "", overloads: str = "") -> str:
    return V.replace("EXTRA", extra) + overloads + BODY.replace("STMT", stmt)


ORDERS = pytest.mark.parametrize(
    "overloads", [G_CLASS + G_FLOAT, G_FLOAT + G_CLASS], ids=["class-first", "float-first"]
)


class TestDeclarationOrder:
    """``V* g(V*, int)`` and ``float* g(float*, int)`` in either order: the
    operand ``*g(vs, i)`` is a ``V`` whichever overload is declared first.
    While the lowering guessed an operand's type from the first overload
    declared, each float-first case failed."""

    @ORDERS
    @DEVICES
    def test_operator_on_a_call_result(self, overloads, on_cpu):
        """Float-first failed while types were guessed: a silent
        miscompile that faults outside the shared region."""
        got = run_v(v_source("V w = *g(vs, i) + v; out[i] = w.x;", overloads=overloads), on_cpu)
        assert got == [x + 1.5 for x in XS]

    @ORDERS
    @DEVICES
    def test_struct_assignment_to_a_call_result(self, overloads, on_cpu):
        """Float-first failed while types were guessed: a
        ``VerificationError`` after ``inline_calls``."""
        stmt = "V u = vs[i] + v; *g(vs, i) = u; out[i] = vs[i].x * 2.0f;"
        assert run_v(v_source(stmt, overloads=overloads), on_cpu) == [
            (x + 1.5) * 2 for x in XS
        ]

    @ORDERS
    @DEVICES
    def test_subscript_of_a_call_result(self, overloads, on_cpu):
        """Float-first failed while types were guessed: ``subscript of
        non-pointer``."""
        got = run_v(v_source("out[i] = (*g(vs, i))[2];", overloads=overloads), on_cpu)
        assert got == [x + 2 for x in XS]


class TestClassRvalues:
    """An operator's result is an sret temporary, not an lvalue; it is
    still a class value, so it can be an operand, a receiver and a return
    value.  Each case failed while the lowering asked an operator for an
    lvalue: ``expression is not assignable (Binary)``."""

    @pytest.mark.parametrize(
        "stmt, extra, want",
        [
            ("V w = v + v + v; out[i] = w.x;", "", lambda x: 4.5),
            ("V w = vs[i] + v - v; out[i] = w.x;", "", lambda x: x),
            (
                "out[i] = vs[i].twice().x;",
                "V twice() { return *this + *this; }",
                lambda x: 2 * x,
            ),
            ("out[i] = (v + vs[i]).x;", "", lambda x: 1.5 + x),
            ("out[i] = (v + vs[i]).get();", "", lambda x: 1.5 + x),
        ],
        ids=["chain", "mixed-chain", "return", "member", "method"],
    )
    @DEVICES
    def test_class_rvalue(self, stmt, extra, want, on_cpu):
        assert run_v(v_source(stmt, extra), on_cpu) == [want(x) for x in XS]


COMPOUND = """
class V {
public:
  float x;
  V operator+(V& o) { V r; r.x = x + o.x; return r; }
  EXTRA
};
class Body {
public:
  V* vs;
  float* out;
  void operator()(int i) { V w = vs[i]; V v; v.x = 1.5f; w += v; w += vs[i]; out[i] = w.x; }
};
"""


class TestCompoundAssignment:
    """``w += v`` on a class calls ``operator+=``.  It used to lower a
    synthetic ``w + v`` and store the temporary's address."""

    @pytest.mark.parametrize(
        "extra, want",
        [
            ("V& operator+=(V& o) { x = x + o.x; return *this; }", lambda x: 2 * x + 1.5),
            ("void operator+=(V& o) { x = x + o.x * 2.0f; }", lambda x: 3 * x + 3.0),
        ],
        ids=["returns-reference", "returns-void"],
    )
    @DEVICES
    def test_calls_the_compound_operator(self, extra, want, on_cpu):
        """Failed before: ``cannot convert %V to %V*`` for the reference
        return, a ``VerificationError`` for the void one."""
        assert run_v(COMPOUND.replace("EXTRA", extra), on_cpu) == [want(x) for x in XS]

    def test_without_it_names_the_missing_operator(self):
        """Failed before with a ``VerificationError`` in the pass
        pipeline instead of a frontend error."""
        with pytest.raises(LowerError, match=r"class V has no operator\+="):
            compile_source(COMPOUND.replace("EXTRA", ""), OptConfig.gpu_all())


REFERENCES = """
class V { public: float x; float get() { return x; } };
FREE
class Body {
public:
  int* data;
  V* vs;
  int* iout;
  float* out;
  MEMBER
  void operator()(int i) { STMT }
};
"""
AT = "int& at(int k) { return data[k]; }"
REF = "V& ref(int k) { return vs[k]; }"
PICK = "V& pick(V* p, int k) { return p[k]; }"


def run_references(stmt: str, member: str, free: str = "", on_cpu: bool = False):
    """``(iout, out, vs[*].x)`` after ``Body`` runs over ``data[i] = 10 i``
    and ``vs[i].x = XS[i]``."""
    source = REFERENCES.replace("FREE", free).replace("MEMBER", member).replace("STMT", stmt)
    rt = ConcordRuntime(compile_source(source, OptConfig.gpu_all()), ultrabook())
    data, vs = rt.new_array(I32, 4), rt.new_array("V", 4)
    iout, out = rt.new_array(I32, 4), rt.new_array(F32, 4)
    for i, x in enumerate(XS):
        data[i], vs[i].x = 10 * i, x
    body = rt.new("Body")
    body.data, body.vs, body.iout, body.out = data, vs, iout, out
    rt.parallel_for_hetero(4, body, on_cpu=on_cpu)
    return iout.to_list(), out.to_list(), [vs[i].x for i in range(4)]


class TestReferenceReturns:
    """A call to a function returning ``T&`` is a value of ``T``: the
    function returns the address of what it names and the call site
    reads it (a class value *is* its address)."""

    @pytest.mark.parametrize(
        "stmt, want",
        [("iout[i] = at(i);", lambda i: 10 * i), ("iout[i] = at(i) + 1;", lambda i: 10 * i + 1)],
        ids=["value", "arithmetic"],
    )
    @DEVICES
    def test_scalar(self, stmt, want, on_cpu):
        """``arithmetic`` failed before: the call's value was the element
        cast to an ``i32*``, so ``+ 1`` stepped four bytes.  ``value``
        fails if the body returns the element's address and the call site
        does not read through it: it stores a truncated address."""
        iout, _, _ = run_references(stmt, AT, on_cpu=on_cpu)
        assert iout == [want(i) for i in range(4)]

    @pytest.mark.parametrize(
        "stmt, free, want_out, want_vs",
        [
            ("out[i] = ref(i).x + 1.0f;", "", lambda x: x + 1, lambda x: x),
            ("V w = pick(vs, i); out[i] = w.get();", PICK, lambda x: x, lambda x: x),
            ("ref(i).x = 2.0f;", "", lambda x: 0.0, lambda x: 2.0),
        ],
        ids=["member", "copy", "store"],
    )
    @DEVICES
    def test_class(self, stmt, free, want_out, want_vs, on_cpu):
        """Failed before: ``return vs[k];`` as a ``V&`` raised ``cannot
        convert %V to %V*``."""
        _, out, vs = run_references(stmt, REF, free, on_cpu)
        assert out == [want_out(x) for x in XS]
        assert vs == [want_vs(x) for x in XS]


def test_two_classes_one_struct_name_is_an_error():
    """``A::b`` and ``A__b`` would both be the struct ``A__b``; types
    compare by name, so the second class would answer for the first."""
    source = (
        "namespace A { class b { public: int p; }; }\n"
        "class A__b { public: float q; };\n"
        "class Body { public: int* out; void operator()(int i) { out[i] = i; } };\n"
    )
    with pytest.raises(Exception, match="share the struct name A__b"):
        compile_source(source, OptConfig.gpu_all())


DUNDER = """
class A__a { public: int pa; int get() { return pa; } };
class B__b { public: int pb; };
class C : public A__a, public B__b { public: int pc; };
int readb(B__b* p) { return p->pb; }
class Body {
public:
  C* cs;
  int* out;
  void operator()(int i) { out[i] = readb(&cs[i]) * 100 + cs[i].get(); }
};
"""


@DEVICES
def test_upcast_to_a_class_named_with_a_double_underscore(on_cpu):
    """``C*`` -> ``B__b*`` adds the ``B__b`` subobject's offset.  Failed
    while ``Sema.class_of_struct`` rewrote ``__`` to ``::``: it found no
    class ``B::b``, ``convert`` emitted a bitcast and ``readb`` read ``pa``."""
    rt = ConcordRuntime(compile_source(DUNDER, OptConfig.gpu_all()), ultrabook())
    cs = rt.new_array("C", 4)
    out = rt.new_array(I32, 4)
    for i in range(4):
        cs[i].pa, cs[i].pb = i + 1, 10 * (i + 1)
    body = rt.new("Body")
    body.cs, body.out = cs, out
    rt.parallel_for_hetero(4, body, on_cpu=on_cpu)
    assert out.to_list() == [10 * (i + 1) * 100 + i + 1 for i in range(4)]


OVERLOADS = """
class Vec {
public:
  float x; float y;
  Vec operator+(Vec& o) { Vec r; r.x = x + o.x; r.y = y + o.y; return r; }
  Vec operator*(float k) { Vec r; r.x = x * k; r.y = y * k; return r; }
  float operator%(Vec& o) { return x * o.x + y * o.y; }
  bool operator==(Vec& o) { return x == o.x && y == o.y; }
};
class Body {
public:
  Vec* in;
  float* out;
  void operator()(int i) {
    Vec a = in[i]; Vec b = in[i + 1];
    Vec t = a * 2.0f;  // a class on the left, a scalar on the right
    Vec c = t + b;
    float d = a % b * 2.0f + c % a - t % t * 0.5f;
    out[i] = (c == a) ? d + i * 2 - 1 : d * 0.5f;
  }
};
"""

#: ``in[i + 1] == -in[i]`` at lanes 0 and 3, so ``c == a`` takes both arms
VECS = [(1.0, 2.0), (-1.0, -2.0), (3.0, 0.5), (0.25, -1.5), (-0.25, 1.5)]


def overloads_reference(i: int) -> float:
    f = np.float32
    a, b = (f(v) for v in VECS[i]), (f(v) for v in VECS[i + 1])
    (ax, ay), (bx, by) = a, b
    tx, ty = ax * f(2), ay * f(2)
    cx, cy = tx + bx, ty + by
    d = (ax * bx + ay * by) * f(2) + (cx * ax + cy * ay) - (tx * tx + ty * ty) * f(0.5)
    return float(d + f(i * 2) - f(1) if (cx, cy) == (ax, ay) else d * f(0.5))


@DEVICES
def test_the_overloads_program(on_cpu):
    """Class operators mixed into scalar chains, on both sides of a scalar
    operator and under ``?:``."""
    rt = ConcordRuntime(compile_source(OVERLOADS, OptConfig.gpu_all()), ultrabook())
    vecs = rt.new_array("Vec", len(VECS))
    out = rt.new_array(F32, 4)
    for k, (x, y) in enumerate(VECS):
        vecs[k].x, vecs[k].y = x, y
    body = rt.new("Body")
    setattr(body, "in", vecs)  # a Python keyword
    body.out = out
    rt.parallel_for_hetero(4, body, on_cpu=on_cpu)
    assert out.to_list() == [overloads_reference(i) for i in range(4)]


def test_the_lowering_guesses_no_types():
    """No type prediction, no struct scan and no name rewrite in the
    struct -> class lookup.  Failed while the lowering had all three."""
    guesses = re.compile(r"_predict_|_static_type|binary_types|_class_of\b|receiver_expr")
    for path in sorted(Path(minicpp.__file__).parent.glob("*.py")):
        found = guesses.findall(path.read_text())
        assert not found, (path.name, found)
    assert ".replace(" not in inspect.getsource(Sema.class_of_struct)
