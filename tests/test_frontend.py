"""Tests for the MiniC++ frontend: lexer, parser, sema, lowering, and
end-to-end execution of compiled functions on the host interpreter."""

import gc
import hashlib
import sys

import pytest

from repro.exec import Interpreter
from repro.ir import I32
from repro.minicpp import LexError, LowerError, ParseError, Sema, SemaError, parse, tokenize
from repro.minicpp.lower import lower_translation_unit
from repro.runtime import ConcordRuntime, OptConfig, compile_source
from repro.runtime.compiler import frontend_stage
from repro.svm import SharedRegion


def run_fn(source: str, fn_prefix: str, *args):
    """Compile and run a free function on the host interpreter."""
    prog = compile_source(source, OptConfig.gpu())
    module = prog.module
    matches = [f for n, f in module.functions.items() if n.startswith(fn_prefix)]
    assert matches, f"no function starting with {fn_prefix}: {list(module.functions)}"
    region = SharedRegion(1 << 16)
    return Interpreter(region, "cpu").call_function(matches[0], list(args))


class TestLexer:
    def test_tokens(self):
        toks = tokenize("int x = 42; // comment\nfloat y = 1.5f;")
        kinds = [t.kind for t in toks]
        assert kinds[0] == "keyword" and toks[0].text == "int"
        assert toks[3].kind == "int" and toks[3].value == 42
        assert any(t.kind == "float" and t.value == 1.5 for t in toks)

    def test_block_comments_and_operators(self):
        toks = tokenize("a /* skip */ -> b :: c <<= 3")
        texts = [t.text for t in toks if t.kind == "op"]
        assert "->" in texts and "::" in texts and "<<=" in texts

    def test_char_literals(self):
        toks = tokenize(r"'a' '\n' '\0'")
        values = [t.value for t in toks if t.kind == "char"]
        assert values == [97, 10, 0]

    def test_hex_literals(self):
        toks = tokenize("0xFF 0x10")
        assert [t.value for t in toks if t.kind == "int"] == [255, 16]

    def test_hex_literals_take_integer_suffixes(self):
        # the suffix used to be left behind as an identifier
        toks = tokenize("0xFFu 0x10UL 7LL")
        assert [(t.kind, t.text, t.value) for t in toks[:-1]] == [
            ("int", "0xFF", 255), ("int", "0x10", 16), ("int", "7", 7),
        ]

    def test_escaped_char_text_keeps_its_opening_quote(self):
        toks = tokenize(r"'\n' 'a' '\''")
        assert [t.text for t in toks[:-1]] == [r"'\n'", "'a'", r"'\''"]

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")
        with pytest.raises(LexError, match="2:3: unterminated block comment"):
            tokenize("a /* closed */\n  /* b / * c")

    @pytest.mark.parametrize(
        "source, where",
        [
            ("0x", "1:1"),  # was a bare ValueError
            ("x = 0xg;", "1:5"),  # was a bare ValueError
            ("a\n  '", "2:3"),  # was an IndexError
            ("'\\", "1:1"),  # was an IndexError
            ("'ab'", "1:1"),
            (r"'\q'", "1:3"),
            ("a $ b", "1:3"),
        ],
    )
    def test_malformed_input_is_a_lex_error_with_a_position(self, source, where):
        with pytest.raises(LexError, match=f"^{where}: "):
            tokenize(source)

    def test_the_frontend_reports_it_as_one_error_line(self):
        # what a daemon compile request carrying a lone quote answers with
        with pytest.raises(LexError):
            compile_source("class A { public: void operator()(int i) { char c = '; } };")

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        a, b, c = toks[0], toks[1], toks[2]
        assert (a.line, b.line, c.line) == (1, 2, 3)
        assert c.column == 3


class TestParser:
    def test_class_with_everything(self):
        unit = parse(
            """
            class Base { public: virtual float area() { return 0.0f; } };
            class Circle : public Base {
              float r;
            public:
              Circle(float radius) : r(radius) {}
              virtual float area() { return 3.14f * r * r; }
              float operator()(int i) { return r + i; }
            };
            """
        )
        assert len(unit.classes) == 2
        circle = unit.classes[1]
        assert circle.bases[0].name == "Base"
        assert len(circle.constructors) == 1
        assert any(m.name == "operator()" for m in circle.methods)
        assert any(m.is_virtual for m in circle.methods)

    def test_namespace_flattening(self):
        unit = parse("namespace ns { class A { public: int x; }; int f() { return 1; } }")
        assert unit.classes[0].namespace == ("ns",)
        assert unit.functions[0].namespace == ("ns",)

    def test_template_class(self):
        unit = parse(
            "template<typename T> class Box { public: T item; T get() { return item; } };"
        )
        assert unit.classes[0].template_params == ["T"]

    def test_control_flow_statements(self):
        unit = parse(
            """
            int f(int n) {
              int s = 0;
              for (int i = 0; i < n; i++) { s += i; }
              while (s > 100) { s /= 2; }
              do { s++; } while (s < 3);
              if (s == 3) return s; else return -s;
            }
            """
        )
        assert unit.functions[0].name == "f"

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse("class A { public: int x; }")  # missing trailing ;

    def test_pure_virtual(self):
        unit = parse("class I { public: virtual int f() = 0; };")
        method = unit.classes[0].methods[0]
        assert method.is_virtual and method.body is None


class TestSemaLayout:
    def _sema(self, src: str) -> Sema:
        return Sema(parse(src))

    def test_class_layout_matches_c_rules(self):
        sema = self._sema("class P { public: char c; int i; char d; long l; };")
        info = sema.lookup_class("P")
        assert info.find_field("c") == (0, info.find_field("c")[1])
        assert info.find_field("i")[0] == 4
        assert info.find_field("d")[0] == 8
        assert info.find_field("l")[0] == 16
        assert info.struct_type.size() == 24

    def test_polymorphic_class_has_vptr_first(self):
        sema = self._sema("class V { public: virtual int f() { return 1; } int x; };")
        info = sema.lookup_class("V")
        assert info.polymorphic
        assert info.struct_type.fields[0].name == "__vptr"
        assert info.find_field("x")[0] == 8

    def test_single_inheritance_layout(self):
        sema = self._sema(
            """
            class B { public: int a; int b; };
            class D : public B { public: int c; };
            """
        )
        d = sema.lookup_class("D")
        assert d.find_field("a")[0] == 0
        assert d.find_field("b")[0] == 4
        assert d.find_field("c")[0] == 8
        assert d.upcast_offset(sema.lookup_class("B")) == 0

    def test_multiple_inheritance_offsets(self):
        sema = self._sema(
            """
            class B1 { public: long x; };
            class B2 { public: long y; };
            class D : public B1, public B2 { public: long z; };
            """
        )
        d = sema.lookup_class("D")
        b2 = sema.lookup_class("B2")
        assert d.upcast_offset(sema.lookup_class("B1")) == 0
        assert d.upcast_offset(b2) == 8
        assert d.find_field("y")[0] == 8
        assert d.find_field("z")[0] == 16

    def test_vtable_override_keeps_slot(self):
        sema = self._sema(
            """
            class B { public: virtual int f() { return 1; } virtual int g() { return 2; } };
            class D : public B { public: virtual int g() { return 3; } };
            """
        )
        b = sema.lookup_class("B")
        d = sema.lookup_class("D")
        assert len(b.vtable) == 2 and len(d.vtable) == 2
        assert d.vtable[0].owner.name == "B"  # inherited f
        assert d.vtable[1].owner.name == "D"  # overridden g

    def test_template_instantiation(self):
        sema = self._sema(
            "template<typename T> class Box { public: T item; };"
        )
        from repro.ir.types import F32, I32

        box_int = sema.instantiate_class_template("Box", [I32])
        box_float = sema.instantiate_class_template("Box", [F32])
        assert box_int is not box_float
        assert box_int.struct_type.size() == 4
        # re-instantiation returns the cached class
        again = sema.instantiate_class_template("Box", [I32])
        assert again is box_int

    def test_unknown_type_raises(self):
        with pytest.raises(SemaError):
            sema = self._sema("class A { public: Mystery m; };")
            sema.lookup_class("A")


class TestLoweringExecution:
    """Compile MiniC++ functions and execute them on the interpreter."""

    def test_arithmetic_and_calls(self):
        src = """
        int square(int x) { return x * x; }
        int f(int n) { return square(n) + square(n + 1); }
        """
        assert run_fn(src, "f.", 3) == 9 + 16

    def test_loops_and_conditionals(self):
        src = """
        int collatz_steps(int n) {
          int steps = 0;
          while (n != 1) {
            if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
            steps++;
          }
          return steps;
        }
        """
        assert run_fn(src, "collatz_steps.", 6) == 8

    def test_float_math(self):
        src = "float hyp(float a, float b) { return sqrtf(a * a + b * b); }"
        assert run_fn(src, "hyp.", 3.0, 4.0) == pytest.approx(5.0)

    def test_short_circuit_evaluation(self):
        src = """
        int guard(int a, int b) {
          if (a != 0 && 100 / a > b) return 1;
          return 0;
        }
        """
        assert run_fn(src, "guard.", 0, 5) == 0  # no division by zero
        assert run_fn(src, "guard.", 2, 5) == 1

    def test_ternary_and_compound_assign(self):
        src = """
        int f(int a) {
          int x = a > 0 ? a : -a;
          x += 3; x *= 2; x -= 1; x /= 3;
          return x;
        }
        """
        assert run_fn(src, "f.", -6) == ((6 + 3) * 2 - 1) // 3

    def test_increments(self):
        src = """
        int f(int a) {
          int x = a;
          int y = x++;
          int z = ++x;
          return y * 100 + z * 10 + x;
        }
        """
        assert run_fn(src, "f.", 5) == 5 * 100 + 7 * 10 + 7

    def test_tail_recursion_becomes_loop(self):
        src = """
        int gcd(int a, int b) {
          if (b == 0) return a;
          return gcd(b, a % b);
        }
        """
        prog = compile_source(src, OptConfig.gpu())
        gcd = next(f for n, f in prog.module.functions.items() if n.startswith("gcd"))
        # after tail-recursion elimination there is no self-call
        assert not any(
            i.op == "call" and i.callee is gcd for i in gcd.instructions()
        )
        region = SharedRegion(1 << 16)
        interp = Interpreter(region, "cpu")
        assert interp.call_function(gcd, [48, 36]) == 12
        assert interp.call_function(gcd, [17, 5]) == 1

    def test_overloaded_functions(self):
        src = """
        int pick(int a) { return 1; }
        int pick(float a) { return 2; }
        int f() { return pick(3) * 10 + pick(2.5f); }
        """
        assert run_fn(src, "f.", ) == 12

    def test_function_template_deduction(self):
        src = """
        template<typename T> T twice(T x) { return x + x; }
        int f(int a) { return twice(a); }
        float g(float a) { return twice(a); }
        """
        assert run_fn(src, "f.", 21) == 42
        assert run_fn(src, "g.", 1.25) == pytest.approx(2.5)

    def test_namespaces(self):
        src = """
        namespace math { int add(int a, int b) { return a + b; } }
        int f(int a) { return math::add(a, 10); }
        """
        assert run_fn(src, "f.", 5) == 15

    def test_global_variables(self):
        src = """
        int counter = 7;
        int f(int x) { counter = counter + x; return counter; }
        """
        prog = compile_source(src, OptConfig.gpu())
        rt = ConcordRuntime(prog)
        assert rt.call_host(next(n for n in prog.module.functions if n.startswith("f.")), 3) == 10


# -- the depth the frontend accepts ---------------------------------------------------


CHAIN_SOURCE = """
class P {
public:
  int x;
  P operator+(P& o) { P r; r.x = x + o.x; return r; }
};
class Chain {
  int* out;
public:
  Chain(int* o) : out(o) {}
  void operator()(int i) { int v = 0; BODY out[i] = v; }
};
"""


def chain_terms(count: int, operators: str, term: str = "i") -> list:
    """``term``, then ``count - 1`` operator/operand pairs."""
    return [term] + [f"{operators[k % len(operators)]} {term}" for k in range(count - 1)]


def run_chain(body: str) -> tuple:
    """(heap digest on the scalar engine, out[0..7]) of the chain kernel."""
    program = compile_source(CHAIN_SOURCE.replace("BODY", body), OptConfig.gpu_all())
    runtime = ConcordRuntime(program, engine="compiled")
    out = runtime.new_array(I32, 8)
    # on the CPU: a 5 000-instruction body is past the inliner's budget,
    # and a kernel that still makes a call cannot run on the device
    runtime.parallel_for_hetero(8, runtime.new("Chain", out), on_cpu=True)
    digest = hashlib.sha256(bytes(runtime.region.physical.data)).hexdigest()
    return digest, [out[i] for i in range(8)]


class TestExpressionDepth:
    """Chains of binary operators cost no frames (the parser builds them
    in a loop, the lowering emits them from an explicit stack); what still
    recurses is parenthesis nesting, two parser frames a level."""

    @pytest.mark.parametrize("operators", ["+", "*+-&"])
    def test_a_5000_term_chain_compiles_to_what_its_statements_compile_to(self, operators):
        terms = chain_terms(5000, operators)
        in_one = "v = " + " ".join(terms) + ";"
        if operators == "+":
            # the same additions, one a statement
            split = "v = i; " + "".join(f"v = v {term};" for term in terms[1:])
        else:
            # cut where the loosest operator binds: each '&' operand a statement
            operands = " ".join(terms).split(" & ")
            split = "".join(f"int t{k} = {text};" for k, text in enumerate(operands))
            split += "v = t0; " + "".join(f"v = v & t{k};" for k in range(1, len(operands)))
        assert run_chain(in_one) == run_chain(split)

    @pytest.mark.parametrize(
        "operators, term, body",
        [
            ("+", "i", "v = {};"),
            ("*+-&", "i", "v = {};"),
            ("+", "p", "P p; p.x = i; P q = {}; v = q.x;"),
        ],
        ids=["+", "*+-&", "class+"],
    )
    def test_lowering_is_linear_in_terms(self, operators, term, body):
        """Scalar chains, and a chain of ``P::operator+`` calls: each
        operator is routed on its left operand as lowered, so the class
        chain is walked by the same loop."""

        def frontend_steps(count: int) -> int:
            """Python lines, calls and returns the frontend runs on a
            ``count``-term chain: its work, counted the same however loaded
            the host is."""
            chain = " ".join(chain_terms(count, operators, term))
            source = CHAIN_SOURCE.replace("BODY", body.format(chain))
            steps = 0

            def trace(_frame, _event, _arg):
                nonlocal steps
                steps += 1
                return trace

            # without the cycle collector, whose finalizers would count
            gc.disable()
            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                frontend_stage(source)
            finally:
                sys.settrace(previous)
                gc.enable()
            return steps

        # linear work reads about 9.5 times the steps for 10 times the terms
        assert frontend_steps(5000) <= 12 * frontend_steps(500)

    def test_300_nested_parentheses_compile(self):
        nested = "(" * 300 + "i" + ")" * 300
        assert run_chain(f"v = {nested};")[1] == list(range(8))

    @pytest.mark.parametrize(
        "body",
        [
            "v = " + "(" * 5000 + "i" + ")" * 5000 + ";",
            "v = " + "".join(f"(i + " for _ in range(3000)) + "i" + ")" * 3000 + ";",
            "v = " + "-" * 5000 + "i;",
        ],
        ids=["parentheses", "right-leaning", "unary"],
    )
    def test_what_is_too_deep_is_a_lower_error(self, body):
        """Never a RecursionError, never a hang."""
        with pytest.raises(LowerError, match="nested too deeply") as caught:
            compile_source(CHAIN_SOURCE.replace("BODY", body), OptConfig.gpu_all())
        assert "chained operators" not in str(caught.value)
