"""Abstract syntax tree for MiniC++.

Nodes carry the source line for diagnostics.  Types at this level are
*syntactic* (:class:`TypeRef`); semantic analysis resolves them against the
class table and template bindings into IR types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Node:
    line: int = 0
    col: int = 0


# -- type references ----------------------------------------------------------


@dataclass
class TypeRef(Node):
    """A syntactic type: named base (possibly qualified / templated) with
    pointer depth, e.g. ``Node*`` or ``Pair<float>**`` or ``unsigned int``."""

    name: str = ""
    pointer_depth: int = 0
    template_args: list["TypeRef"] = field(default_factory=list)
    is_const: bool = False
    is_reference: bool = False

    def __str__(self) -> str:
        args = (
            "<" + ", ".join(str(a) for a in self.template_args) + ">"
            if self.template_args
            else ""
        )
        return f"{self.name}{args}{'*' * self.pointer_depth}{'&' if self.is_reference else ''}"


# -- expressions ---------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0
    is_double: bool = False


@dataclass
class BoolLiteral(Expr):
    value: bool = False


@dataclass
class CharLiteral(Expr):
    value: int = 0


@dataclass
class NullLiteral(Expr):
    pass


@dataclass
class Name(Expr):
    """Possibly qualified identifier: ``x``, ``ns::x``, ``Class::member``."""

    parts: list[str] = field(default_factory=list)

    @property
    def simple(self) -> Optional[str]:
        return self.parts[0] if len(self.parts) == 1 else None

    def __str__(self) -> str:
        return "::".join(self.parts)


@dataclass
class ThisExpr(Expr):
    pass


@dataclass
class Unary(Expr):
    op: str = ""  # - ! ~ * & ++pre --pre post++ post--
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class Assign(Expr):
    op: str = "="  # = += -= *= /= %= &= |= ^= <<= >>=
    target: Expr = None
    value: Expr = None


@dataclass
class Conditional(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Call(Expr):
    """Free function call (possibly qualified), e.g. ``sqrtf(x)``."""

    name: Name = None
    args: list[Expr] = field(default_factory=list)
    template_args: list[TypeRef] = field(default_factory=list)


@dataclass
class MethodCall(Expr):
    receiver: Expr = None
    method: str = ""
    args: list[Expr] = field(default_factory=list)
    arrow: bool = False  # receiver->method(...) vs receiver.method(...)


@dataclass
class Member(Expr):
    receiver: Expr = None
    member: str = ""
    arrow: bool = False


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class CallOperator(Expr):
    """``obj(args...)`` — invokes ``operator()``."""

    receiver: Expr = None
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewExpr(Expr):
    type: TypeRef = None
    array_size: Optional[Expr] = None
    ctor_args: list[Expr] = field(default_factory=list)


@dataclass
class DeleteExpr(Expr):
    operand: Expr = None
    is_array: bool = False


@dataclass
class Cast(Expr):
    type: TypeRef = None
    operand: Expr = None


@dataclass
class SizeofExpr(Expr):
    type: TypeRef = None


# -- statements ----------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class VarDecl(Stmt):
    type: TypeRef = None
    name: str = ""
    init: Optional[Expr] = None
    array_size: Optional[Expr] = None  # T name[N];
    ctor_args: Optional[list[Expr]] = None  # T name(a, b);


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- declarations ----------------------------------------------------------------


@dataclass
class Param(Node):
    type: TypeRef = None
    name: str = ""


@dataclass
class FunctionDecl(Node):
    name: str = ""
    return_type: TypeRef = None
    params: list[Param] = field(default_factory=list)
    body: Optional[Block] = None
    is_virtual: bool = False
    is_static: bool = False
    is_const: bool = False
    template_params: list[str] = field(default_factory=list)
    namespace: tuple[str, ...] = ()
    owner_class: Optional[str] = None  # set for out-of-line definitions


@dataclass
class FieldDecl(Node):
    type: TypeRef = None
    name: str = ""
    array_size: Optional[Expr] = None


@dataclass
class ConstructorDecl(Node):
    params: list[Param] = field(default_factory=list)
    initializers: list[tuple[str, list[Expr]]] = field(default_factory=list)
    body: Optional[Block] = None


@dataclass
class BaseSpec(Node):
    name: str = ""
    access: str = "public"
    template_args: list[TypeRef] = field(default_factory=list)


@dataclass
class ClassDecl(Node):
    name: str = ""
    bases: list[BaseSpec] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[FunctionDecl] = field(default_factory=list)
    constructors: list[ConstructorDecl] = field(default_factory=list)
    template_params: list[str] = field(default_factory=list)
    namespace: tuple[str, ...] = ()
    is_struct: bool = False


@dataclass
class GlobalVarDecl(Node):
    type: TypeRef = None
    name: str = ""
    init: Optional[Expr] = None
    namespace: tuple[str, ...] = ()


@dataclass
class TranslationUnit(Node):
    classes: list[ClassDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    globals: list[GlobalVarDecl] = field(default_factory=list)
