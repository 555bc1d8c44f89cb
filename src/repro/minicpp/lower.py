"""AST -> IR lowering for MiniC++.

Lowering style mirrors CLANG at -O0: every local variable (including
parameters and ``this``) gets an ``alloca``; mem2reg promotes them later.
Class-typed expressions are represented by their *address* (C++ lvalue
semantics); small-struct returns use a hidden sret pointer; struct
assignment copies field-by-field.

Virtual method calls emit ``vcall`` pseudo-instructions carrying the static
class and vtable slot; the devirtualization pass expands them (section 3.2
of the paper).  Object construction stores the vtable *global symbol
address* into ``__vptr`` — the loader materializes vtables in the shared
region.
"""

from __future__ import annotations

import struct
from typing import Optional

from .. import ir
from ..ir import IRBuilder, add_phi_incoming
from ..ir.intrinsics import ALL_INTRINSICS, MATH_INTRINSICS
from ..ir.types import (
    BOOL,
    F32,
    F64,
    FloatType,
    FunctionType,
    I8,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    U32,
    U64,
    VOID,
    VoidType,
    ptr,
)
from . import ast
from .sema import (
    ClassInfo,
    FreeFunctionInfo,
    MethodInfo,
    PRIMITIVES,
    Sema,
    VPTR_FIELD,
)

BUILTIN_MATH = {
    # C math library names -> (intrinsic key base, float bits)
    "sqrtf": ("sqrt", 32), "sqrt": ("sqrt", 64),
    "fabsf": ("fabs", 32), "fabs": ("fabs", 64),
    "floorf": ("floor", 32), "floor": ("floor", 64),
    "ceilf": ("ceil", 32), "ceil": ("ceil", 64),
    "expf": ("exp", 32), "exp": ("exp", 64),
    "logf": ("log", 32), "log": ("log", 64),
    "sinf": ("sin", 32), "sin": ("sin", 64),
    "cosf": ("cos", 32), "cos": ("cos", 64),
    "tanf": ("tan", 32), "tan": ("tan", 64),
    "powf": ("pow", 32), "pow": ("pow", 64),
    "fminf": ("fmin", 32), "fmin": ("fmin", 64),
    "fmaxf": ("fmax", 32), "fmax": ("fmax", 64),
    "rsqrtf": ("rsqrt", 32),
    "atan2f": ("atan2", 32), "atan2": ("atan2", 64),
}

BUILTIN_ATOMICS = {
    "atomic_add": "atomic.add.i32",
    "atomic_min": "atomic.min.i32",
    "atomic_max": "atomic.max.i32",
    "atomic_cas": "atomic.cas.i32",
    "atomic_add_float": "atomic.add.f32",
}


class LowerError(Exception):
    pass


class UnitLowerer:
    """Lowers every concrete function/method of a translation unit."""

    def __init__(self, sema: Sema, module: Optional[ir.Module] = None):
        self.sema = sema
        self.module = module or ir.Module("minicpp")
        self._pending: list = []

    def lower_unit(self) -> ir.Module:
        # Globals first so function bodies can reference them.
        for qualified, gdecl in self.sema.globals.items():
            gtype = self.sema.resolve_type(gdecl.type, namespace=gdecl.namespace)
            gvar = ir.GlobalVariable(qualified.replace("::", "."), gtype)
            if gdecl.init is not None:
                gvar.initializer = _const_initializer(gdecl.init)
            self.module.add_global(gvar)

        for info in list(self.sema.classes.values()):
            self._declare_class(info)
        for overloads in list(self.sema.functions.values()):
            for fn_info in overloads:
                self._declare_free(fn_info)

        # Lower bodies (the worklist grows as templates instantiate).
        progress = True
        while progress:
            progress = False
            for info in list(self.sema.classes.values()):
                if not getattr(info, "_declared", False):
                    self._declare_class(info)
                    progress = True
            for overloads in list(self.sema.functions.values()):
                for fn_info in overloads:
                    if fn_info.ir_function is None:
                        self._declare_free(fn_info)
                        progress = True
            while self._pending:
                kind, payload = self._pending.pop()
                if kind == "method":
                    self._lower_method_body(payload)
                else:
                    self._lower_free_body(payload)
                progress = True

        # vtables + hierarchy for the devirtualization pass.  Every
        # polymorphic class gets a vtable global in the shared region even
        # when no compiled constructor references it — host code may
        # construct instances directly (paper: vtables and RTTI move to the
        # shared region at load time).
        for info in self.sema.classes.values():
            if info.vtable:
                self.module.vtables[info.name] = [
                    m.ir_function for m in info.vtable if m.ir_function is not None
                ]
                name = f"__vtable.{info.struct_type.name}"
                if name not in self.module.globals:
                    gvar = ir.GlobalVariable(
                        name, ir.ArrayType(ir.I64, max(len(info.vtable), 1))
                    )
                    gvar.initializer = ("vtable", info.name)
                    self.module.add_global(gvar)
        self.module.class_hierarchy = self.sema.class_hierarchy()
        self.module.sema = self.sema
        return self.module

    # -- declaration ---------------------------------------------------------

    def _declare_class(self, info: ClassInfo) -> None:
        if getattr(info, "_declared", False):
            return
        info._declared = True
        self.module.structs.setdefault(info.struct_type.name, info.struct_type)
        for method in info.all_methods():
            if method.ir_function is not None or method.decl.body is None:
                continue
            fn = self._declare_signature(
                method.mangled,
                method.decl,
                this_type=ptr(info.struct_type),
                namespace=info.decl.namespace,
                bindings=info.template_bindings,
            )
            method.ir_function = fn
            fn.attributes["method_of"] = info.name
            self._pending.append(("method", (info, method)))
        for index, ctor in enumerate(info.constructors):
            mangled = f"{info.struct_type.name}.ctor.{index}"
            if mangled in self.module.functions:
                continue
            decl = ast.FunctionDecl(
                line=ctor.line,
                name=f"ctor{index}",
                return_type=ast.TypeRef(name="void"),
                params=ctor.params,
                body=ctor.body,
            )
            fn = self._declare_signature(
                mangled,
                decl,
                this_type=ptr(info.struct_type),
                namespace=info.decl.namespace,
                bindings=info.template_bindings,
            )
            fn.attributes["constructor_of"] = info.name
            info_ctor = MethodInfo(owner=info, decl=decl, mangled=mangled)
            info_ctor.ir_function = fn
            info_ctor._ctor = ctor
            self._pending.append(("method", (info, info_ctor)))
            if not hasattr(info, "ctor_functions"):
                info.ctor_functions = []
            info.ctor_functions.append(fn)

    def _declare_free(self, fn_info: FreeFunctionInfo) -> None:
        if fn_info.ir_function is not None or fn_info.decl.body is None:
            return
        fn = self._declare_signature(
            fn_info.mangled,
            fn_info.decl,
            this_type=None,
            namespace=fn_info.decl.namespace,
            bindings={},
        )
        fn_info.ir_function = fn
        self._pending.append(("free", fn_info))

    def _declare_signature(
        self, mangled, decl: ast.FunctionDecl, this_type, namespace, bindings
    ) -> ir.Function:
        if mangled in self.module.functions:
            return self.module.functions[mangled]
        ret = self.sema.resolve_type(decl.return_type, bindings, namespace)
        params: list[Type] = []
        names: list[str] = []
        sret = isinstance(ret, StructType)
        if sret:
            params.append(ptr(ret))
            names.append("sret")
            ret = VOID
        if this_type is not None:
            params.append(this_type)
            names.append("this")
        for param in decl.params:
            ptype = self.sema.resolve_type(param.type, bindings, namespace)
            if isinstance(ptype, StructType):
                ptype = ptr(ptype)  # byval: caller passes a copy's address
            params.append(ptype)
            names.append(param.name)
        fn = ir.Function(mangled, FunctionType(ret, tuple(params)), names)
        fn.attributes["sret"] = sret
        self.module.add_function(fn)
        return fn

    # -- bodies -----------------------------------------------------------------

    def _lower_method_body(self, payload) -> None:
        info, method = payload
        fn = method.ir_function
        if fn.blocks:
            return
        lowerer = FunctionLowerer(
            self,
            fn,
            method.decl,
            this_class=info,
            namespace=info.decl.namespace,
            bindings=info.template_bindings,
        )
        ctor = getattr(method, "_ctor", None)
        lowerer.lower(ctor_initializers=ctor.initializers if ctor else None)

    def _lower_free_body(self, fn_info: FreeFunctionInfo) -> None:
        fn = fn_info.ir_function
        if fn.blocks:
            return
        lowerer = FunctionLowerer(
            self,
            fn,
            fn_info.decl,
            this_class=None,
            namespace=fn_info.decl.namespace,
            bindings={},
        )
        lowerer.lower()

    # -- on-demand method/function lowering for call sites ------------------------

    def require_method(self, info: ClassInfo, method: MethodInfo) -> ir.Function:
        self._declare_class(info)
        if method.ir_function is None:
            raise LowerError(
                f"method {method.mangled} has no body to lower"
            )
        return method.ir_function

    def require_free(self, fn_info: FreeFunctionInfo) -> ir.Function:
        self._declare_free(fn_info)
        if fn_info.ir_function is None:
            raise LowerError(f"function {fn_info.qualified} has no body")
        return fn_info.ir_function


class _Local:
    __slots__ = ("alloca", "type", "is_reference")

    def __init__(self, alloca, type_, is_reference: bool = False):
        self.alloca = alloca
        self.type = type_
        self.is_reference = is_reference


class FunctionLowerer:
    def __init__(
        self,
        unit: UnitLowerer,
        fn: ir.Function,
        decl: ast.FunctionDecl,
        this_class: Optional[ClassInfo],
        namespace: tuple[str, ...],
        bindings: dict[str, Type],
    ):
        self.unit = unit
        self.sema = unit.sema
        self.module = unit.module
        self.fn = fn
        self.decl = decl
        self.this_class = this_class
        self.namespace = namespace
        self.bindings = bindings
        self.builder = IRBuilder()
        self.locals: dict[str, _Local] = {}
        self.loop_stack: list[tuple] = []  # (continue_block, break_block)
        self.sret_arg = None
        self.ret_type = self.sema.resolve_type(decl.return_type, bindings, namespace)

    # -- driver ---------------------------------------------------------------

    def lower(self, ctor_initializers=None) -> None:
        entry = self.fn.new_block("entry")
        self.builder.position_at_end(entry)
        # Prologue (argument spills, vtable install) is charged to the
        # declaration line; statements re-stamp as they lower.
        self.builder.set_loc(self.decl.line, self.decl.col)
        self.fn.attributes["source_locs"] = True
        arg_iter = iter(self.fn.args)
        if self.fn.attributes.get("sret"):
            self.sret_arg = next(arg_iter)
        if self.this_class is not None:
            this_arg = next(arg_iter)
            slot = self.builder.alloca(this_arg.type, "this.addr")
            self.builder.store(this_arg, slot)
            self.locals["this"] = _Local(slot, this_arg.type)
        for param, arg in zip(self.decl.params, arg_iter):
            slot = self.builder.alloca(arg.type, f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.locals[param.name] = _Local(slot, arg.type)
            if param.type.is_reference:
                self.locals[param.name].is_reference = True

        if ctor_initializers is not None:
            self._lower_ctor_preamble(ctor_initializers)

        self.lower_block(self.decl.body)
        if self.builder.block.terminator is None:
            if isinstance(self.fn.return_type, VoidType):
                self.builder.ret()
            else:
                self.builder.ret(_zero(self.fn.return_type))

    def _lower_ctor_preamble(self, initializers) -> None:
        info = self.this_class
        this_value, _ = self.rvalue_name_this()
        # Install the vtable pointer first, as a real constructor would.
        if info.polymorphic:
            gvar = self._vtable_global(info)
            addr = self.builder.gep(
                this_value, ptr(ptr(I64)),
                offset=info.find_field(VPTR_FIELD)[0],
                name="vptr.slot",
            )
            self.builder.store(gvar, addr)
        for member, args in initializers:
            found = info.find_field(member)
            if found is None:
                raise LowerError(
                    f"constructor initializes unknown member {member} "
                    f"of {info.name}"
                )
            offset, ftype = found
            if isinstance(ftype, StructType):
                raise LowerError(
                    "constructor member-initializers for embedded structs "
                    "are not supported; assign fields in the body"
                )
            if len(args) != 1:
                raise LowerError(f"initializer for {member} takes one value")
            value, vtype = self.rvalue(args[0])
            value = self.convert(value, vtype, ftype)
            addr = self.builder.gep(
                this_value, ptr(ftype), offset=offset, name=f"{member}.addr"
            )
            self.builder.store(value, addr)

    def rvalue_name_this(self):
        local = self.locals["this"]
        return self.builder.load(local.alloca, "this"), local.type

    def _vtable_global(self, info: ClassInfo) -> ir.GlobalVariable:
        name = f"__vtable.{info.struct_type.name}"
        gvar = self.module.globals.get(name)
        if gvar is None:
            slots = len(info.vtable)
            gvar = ir.GlobalVariable(name, ir.ArrayType(I64, max(slots, 1)))
            gvar.initializer = ("vtable", info.name)
            self.module.add_global(gvar)
        return gvar

    # -- statements ---------------------------------------------------------------

    def lower_block(self, block: ast.Block) -> None:
        saved = dict(self.locals)
        for stmt in block.statements:
            self.lower_stmt(stmt)
            if self.builder.block.terminator is not None:
                break  # dead code after return/break/continue
        self.locals = saved

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if stmt.line:
            self.builder.set_loc(stmt.line, stmt.col)
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr_any(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            self.lower_vardecl(stmt)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self.lower_dowhile(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self.lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise LowerError(f"line {stmt.line}: break outside loop")
            self.builder.br(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise LowerError(f"line {stmt.line}: continue outside loop")
            self.builder.br(self.loop_stack[-1][0])
        else:
            raise LowerError(f"unhandled statement {type(stmt).__name__}")

    def lower_vardecl(self, stmt: ast.VarDecl) -> None:
        vtype = self.sema.resolve_type(stmt.type, self.bindings, self.namespace)
        if stmt.array_size is not None:
            from .sema import _const_int

            count = _const_int(stmt.array_size)
            vtype = ir.ArrayType(vtype, count)
        slot = self.builder.alloca(vtype, stmt.name)
        self.locals[stmt.name] = _Local(slot, vtype)
        if stmt.init is not None:
            if isinstance(vtype, StructType):
                # Class-typed expressions evaluate to an address (an lvalue
                # or an sret temporary from an operator/method call).
                src_addr, stype = self.rvalue(stmt.init)
                if stype != vtype:
                    raise LowerError(
                        f"line {stmt.line}: cannot initialize {vtype} from {stype}"
                    )
                self.emit_struct_copy(slot, src_addr, vtype)
            else:
                value, itype = self.rvalue(stmt.init)
                self.builder.store(self.convert(value, itype, vtype), slot)
        elif stmt.ctor_args is not None and isinstance(vtype, StructType):
            self.emit_constructor_call(slot, vtype, stmt.ctor_args, stmt.line)

    def lower_if(self, stmt: ast.If) -> None:
        then_block = self.fn.new_block("if.then")
        else_block = self.fn.new_block("if.else") if stmt.otherwise else None
        join = self.fn.new_block("if.end")
        self.lower_condition(stmt.cond, then_block, else_block or join)
        self.builder.position_at_end(then_block)
        self.lower_stmt(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.br(join)
        if else_block is not None:
            self.builder.position_at_end(else_block)
            self.lower_stmt(stmt.otherwise)
            if self.builder.block.terminator is None:
                self.builder.br(join)
        self.builder.position_at_end(join)

    def lower_while(self, stmt: ast.While) -> None:
        header = self.fn.new_block("while.cond")
        body = self.fn.new_block("while.body")
        exit_block = self.fn.new_block("while.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        self.lower_condition(stmt.cond, body, exit_block)
        self.builder.position_at_end(body)
        self.loop_stack.append((header, exit_block))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(header)
        self.builder.position_at_end(exit_block)

    def lower_dowhile(self, stmt: ast.DoWhile) -> None:
        body = self.fn.new_block("do.body")
        cond_block = self.fn.new_block("do.cond")
        exit_block = self.fn.new_block("do.end")
        self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append((cond_block, exit_block))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(cond_block)
        self.builder.position_at_end(cond_block)
        self.lower_condition(stmt.cond, body, exit_block)
        self.builder.position_at_end(exit_block)

    def lower_for(self, stmt: ast.For) -> None:
        saved = dict(self.locals)
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.fn.new_block("for.cond")
        body = self.fn.new_block("for.body")
        step_block = self.fn.new_block("for.step")
        exit_block = self.fn.new_block("for.end")
        self.builder.br(header)
        self.builder.position_at_end(header)
        if stmt.cond is not None:
            self.lower_condition(stmt.cond, body, exit_block)
        else:
            self.builder.br(body)
        self.builder.position_at_end(body)
        self.loop_stack.append((step_block, exit_block))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        if self.builder.block.terminator is None:
            self.builder.br(step_block)
        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self.lower_expr_any(stmt.step)
        self.builder.br(header)
        self.builder.position_at_end(exit_block)
        self.locals = saved

    def lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.builder.ret()
            return
        if self.sret_arg is not None:
            src_addr, stype = self.rvalue(stmt.value)
            if stype != self.sret_arg.type.pointee:
                raise LowerError(
                    f"line {stmt.line}: cannot return {stype} as {self.sret_arg.type.pointee}"
                )
            self.emit_struct_copy(self.sret_arg, src_addr, stype)
            self.builder.ret()
            return
        if self.decl.return_type.is_reference:
            # a reference is the address of what it names
            addr, vtype = self.lvalue(stmt.value)
            self.builder.ret(self.convert(addr, ptr(vtype), self.fn.return_type))
            return
        value, vtype = self.rvalue(stmt.value)
        self.builder.ret(self.convert(value, vtype, self.fn.return_type))

    def lower_condition(self, expr: ast.Expr, true_block, false_block) -> None:
        """Lower a boolean context with short-circuit && / ||."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            mid = self.fn.new_block("and.rhs")
            self.lower_condition(expr.lhs, mid, false_block)
            self.builder.position_at_end(mid)
            self.lower_condition(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            mid = self.fn.new_block("or.rhs")
            self.lower_condition(expr.lhs, true_block, mid)
            self.builder.position_at_end(mid)
            self.lower_condition(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.lower_condition(expr.operand, false_block, true_block)
            return
        value, vtype = self.rvalue(expr)
        cond = self.to_bool(value, vtype)
        self.builder.condbr(cond, true_block, false_block)

    # -- expressions -----------------------------------------------------------------

    def lower_expr_any(self, expr: ast.Expr) -> None:
        """Expression statement: evaluate for side effects."""
        self.rvalue_or_void(expr)

    def rvalue_or_void(self, expr: ast.Expr):
        result = self._lower_expr(expr, want_lvalue=False, allow_void=True)
        return result

    def rvalue(self, expr: ast.Expr):
        value, vtype = self._lower_expr(expr, want_lvalue=False, allow_void=False)
        return value, vtype

    def lvalue(self, expr: ast.Expr):
        """Returns (address, value_type)."""
        return self._lower_expr(expr, want_lvalue=True, allow_void=False)

    def _lower_expr(self, expr, want_lvalue: bool, allow_void: bool = False):
        method = getattr(self, f"_lower_{type(expr).__name__}", None)
        if method is None:
            raise LowerError(f"unhandled expression {type(expr).__name__}")
        # Charge instructions to the innermost expression being lowered;
        # restore the parent's location afterwards so an operator's own
        # instructions are stamped with the operator, not its last operand.
        saved = self.builder.loc
        if expr.line:
            self.builder.set_loc(expr.line, expr.col)
        try:
            result = method(expr, want_lvalue)
        finally:
            self.builder.loc = saved if saved is not None else self.builder.loc
        if result is None and not allow_void:
            raise LowerError(
                f"line {expr.line}: void value used in an expression"
            )
        return result

    # literals

    def _lower_IntLiteral(self, expr: ast.IntLiteral, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        return ir.const_int(expr.value, I32 if -(2**31) <= expr.value < 2**31 else I64), (
            I32 if -(2**31) <= expr.value < 2**31 else I64
        )

    def _lower_FloatLiteral(self, expr: ast.FloatLiteral, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        if expr.is_double:
            return ir.Constant(F64, expr.value), F64
        # An f32 literal denotes the nearest single-precision value; quantize
        # now so the register form matches what an f32 store/load round-trip
        # would produce.
        value = struct.unpack("f", struct.pack("f", expr.value))[0]
        return ir.Constant(F32, value), F32

    def _lower_BoolLiteral(self, expr, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        return ir.const_bool(expr.value), BOOL

    def _lower_CharLiteral(self, expr, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        return ir.const_int(expr.value, I8), I8

    def _lower_NullLiteral(self, expr, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        return ir.Constant(ptr(I8), 0), ptr(I8)

    def _lower_ThisExpr(self, expr, want_lvalue):
        if self.this_class is None:
            raise LowerError(f"line {expr.line}: 'this' outside a method")
        local = self.locals["this"]
        if want_lvalue:
            return local.alloca, local.type
        return self.builder.load(local.alloca, "this"), local.type

    def _lower_Name(self, expr: ast.Name, want_lvalue):
        simple = expr.simple
        if simple is not None and simple in self.locals:
            local = self.locals[simple]
            if getattr(local, "is_reference", False):
                # reference parameter: the slot holds a pointer to the value
                pointer = self.builder.load(local.alloca, simple)
                pointee = local.type.pointee
                if want_lvalue:
                    return pointer, pointee
                if isinstance(pointee, StructType):
                    return pointer, pointee
                return self.builder.load(pointer, simple), pointee
            if want_lvalue:
                return local.alloca, local.type
            if isinstance(local.type, StructType):
                return local.alloca, local.type
            if isinstance(local.type, ir.ArrayType):
                # arrays decay to element pointers
                decay = self.builder.gep(
                    local.alloca, ptr(local.type.element), name=f"{simple}.decay"
                )
                return decay, ptr(local.type.element)
            return self.builder.load(local.alloca, simple), local.type
        # implicit this->field
        if self.this_class is not None and simple is not None:
            found = self.this_class.find_field(simple)
            if found is not None:
                return self._member_through_this(simple, found, want_lvalue)
        # global variable
        qualified = self._lookup_global(expr)
        if qualified is not None:
            gvar, gtype = qualified
            if want_lvalue:
                return gvar, gtype
            if isinstance(gtype, StructType):
                return gvar, gtype
            return self.builder.load(gvar, str(expr)), gtype
        raise LowerError(f"line {expr.line}: unknown name {expr}")

    def _lookup_global(self, expr: ast.Name):
        name = str(expr)
        from .sema import _search_names

        for qualified in _search_names(self.namespace, name):
            gdecl = self.sema.globals.get(qualified)
            if gdecl is not None:
                gvar = self.module.globals[qualified.replace("::", ".")]
                return gvar, gvar.value_type
        return None

    def _member_through_this(self, name, found, want_lvalue):
        offset, ftype = found
        this_value, this_type = self.rvalue_name_this()
        if isinstance(ftype, ir.ArrayType):
            addr = self.builder.gep(
                this_value, ptr(ftype.element), offset=offset, name=f"{name}.addr"
            )
            return addr, ptr(ftype.element)
        addr = self.builder.gep(this_value, ptr(ftype), offset=offset, name=f"{name}.addr")
        if want_lvalue or isinstance(ftype, StructType):
            return addr, ftype
        return self.builder.load(addr, name), ftype

    # unary / binary

    def _lower_Unary(self, expr: ast.Unary, want_lvalue):
        op = expr.op
        if op == "*":
            pointer, ptype = self.rvalue(expr.operand)
            if not isinstance(ptype, PointerType):
                raise LowerError(f"line {expr.line}: dereference of non-pointer")
            pointee = ptype.pointee
            if want_lvalue or isinstance(pointee, StructType):
                return pointer, pointee
            return self.builder.load(pointer, "deref"), pointee
        if op == "&":
            addr, vtype = self.lvalue(expr.operand)
            self._no_lvalue(want_lvalue, expr)
            return addr, ptr(vtype)
        if op in ("++pre", "--pre", "post++", "post--"):
            addr, vtype = self.lvalue(expr.operand)
            old = self.builder.load(addr, "crement.old")
            one = (
                ir.Constant(vtype, 1)
                if isinstance(vtype, IntType)
                else ir.Constant(I64, vtype.pointee.size())
                if isinstance(vtype, PointerType)
                else ir.Constant(vtype, 1.0)
            )
            binop = "add" if "++" in op else "sub"
            if isinstance(vtype, FloatType):
                binop = "f" + binop
            new = self.builder.binop(binop, old, one, "crement.new")
            self.builder.store(new, addr)
            self._no_lvalue(want_lvalue, expr)
            return (old if op.startswith("post") else new), vtype
        self._no_lvalue(want_lvalue, expr)
        value, vtype = self.rvalue(expr.operand)
        if op == "-":
            zero = _zero(vtype)
            sub_op = "fsub" if isinstance(vtype, FloatType) else "sub"
            return self.builder.binop(sub_op, zero, value, "neg"), vtype
        if op == "!":
            cond = self.to_bool(value, vtype)
            return self.builder.binop("xor", cond, ir.const_bool(True), "not"), BOOL
        if op == "~":
            return (
                self.builder.binop("xor", value, ir.Constant(vtype, -1 & ((1 << vtype.bits) - 1)), "bnot"),
                vtype,
            )
        raise LowerError(f"unhandled unary {op}")

    _CMP_PREDS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
    _ARITH = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem"}
    _BITWISE = {"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr"}

    def _lower_Binary(self, expr: ast.Binary, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        if expr.op in ("&&", "||"):
            return self._lower_logical(expr)

        # ``a + b * c - d ...`` leans left: its operators are entered top
        # down on an explicit stack and emitted innermost first, so a chain
        # costs no frames.  Each is routed on its left operand as lowered:
        # a class value calls its ``operator<op>``, anything else is scalar.
        # Entering and leaving a nested operator moves the builder's
        # location exactly as ``_lower_expr`` does.
        builder = self.builder
        chain = [(expr, None)]
        node = expr.lhs
        while isinstance(node, ast.Binary) and node.op not in ("&&", "||"):
            chain.append((node, builder.loc))
            if node.line:
                builder.set_loc(node.line, node.col)
            node = node.lhs
        lhs, ltype = self.rvalue(node)
        while chain:
            node, outer_loc = chain.pop()
            if isinstance(ltype, StructType):
                result = self._call_on(node, lhs, ltype, f"operator{node.op}", [node.rhs])
                if result is None:
                    if chain:
                        raise LowerError(f"line {node.line}: void value used in an expression")
                    return None
                lhs, ltype = result
            else:
                rhs, rtype = self.rvalue(node.rhs)
                lhs, ltype = self._emit_scalar_binary(node, lhs, ltype, rhs, rtype)
            if outer_loc is not None:
                builder.loc = outer_loc
        return lhs, ltype

    def _emit_scalar_binary(self, expr: ast.Binary, lhs, ltype, rhs, rtype):
        op = expr.op

        # pointer arithmetic
        if isinstance(ltype, PointerType) and op in ("+", "-") and isinstance(rtype, IntType):
            scale = ltype.pointee.size()
            index = rhs
            if op == "-":
                index = self.builder.binop("sub", _zero(rtype), rhs, "p.negidx")
            return (
                self.builder.gep(lhs, ltype, indices=[(index, scale)], name="p.arith"),
                ltype,
            )
        if isinstance(ltype, PointerType) and isinstance(rtype, PointerType):
            if op in self._CMP_PREDS:
                li = self.builder.cast("ptrtoint", lhs, U64, "p.l")
                ri = self.builder.cast("ptrtoint", rhs, U64, "p.r")
                pred = self._CMP_PREDS[op]
                pred = pred if pred in ("eq", "ne") else "u" + pred
                return self.builder.icmp(pred, li, ri, "pcmp"), BOOL
            if op == "-":
                li = self.builder.cast("ptrtoint", lhs, I64, "p.l")
                ri = self.builder.cast("ptrtoint", rhs, I64, "p.r")
                diff = self.builder.binop("sub", li, ri, "p.diff")
                return (
                    self.builder.binop(
                        "sdiv", diff, ir.const_int(ltype.pointee.size(), I64), "p.dist"
                    ),
                    I64,
                )

        common = self.common_type(ltype, rtype, expr)
        lhs = self.convert(lhs, ltype, common)
        rhs = self.convert(rhs, rtype, common)

        if op in self._CMP_PREDS:
            pred = self._CMP_PREDS[op]
            if isinstance(common, FloatType):
                return self.builder.fcmp("o" + (pred if pred not in ("lt","le","gt","ge") else pred), lhs, rhs, "fcmp"), BOOL
            if pred in ("eq", "ne"):
                return self.builder.icmp(pred, lhs, rhs, "icmp"), BOOL
            prefix = "u" if isinstance(common, IntType) and not common.signed else "s"
            return self.builder.icmp(prefix + pred, lhs, rhs, "icmp"), BOOL
        if op in self._ARITH:
            base = self._ARITH[op]
            if isinstance(common, FloatType):
                if base == "rem":
                    base = "rem"
                return self.builder.binop("f" + base, lhs, rhs, "arith"), common
            if base == "div":
                base = "sdiv" if common.signed else "udiv"
            elif base == "rem":
                base = "srem" if common.signed else "urem"
            return self.builder.binop(base, lhs, rhs, "arith"), common
        if op in self._BITWISE:
            base = self._BITWISE[op]
            if base == "shr":
                base = "ashr" if common.signed else "lshr"
            return self.builder.binop(base, lhs, rhs, "bits"), common
        raise LowerError(f"unhandled binary {op}")

    def _lower_logical(self, expr: ast.Binary):
        true_block = self.fn.new_block("log.true")
        false_block = self.fn.new_block("log.false")
        join = self.fn.new_block("log.join")
        self.lower_condition(expr, true_block, false_block)
        self.builder.position_at_end(true_block)
        self.builder.br(join)
        self.builder.position_at_end(false_block)
        self.builder.br(join)
        self.builder.position_at_end(join)
        phi = self.builder.phi(BOOL, "log.val")
        add_phi_incoming(phi, ir.const_bool(True), true_block)
        add_phi_incoming(phi, ir.const_bool(False), false_block)
        return phi, BOOL

    def _lower_Assign(self, expr: ast.Assign, want_lvalue):
        addr, vtype = self.lvalue(expr.target)
        if isinstance(vtype, StructType):
            # a class target: its ``operator=`` / ``operator<op>=``, or
            # for a plain ``=`` without one a field-wise copy
            method = f"operator{expr.op}"
            if expr.op != "=" or self.sema.class_of_struct(vtype).find_methods(method):
                return self._call_on(expr, addr, vtype, method, [expr.value])
            src, stype = self.rvalue(expr.value)
            if stype != vtype:
                raise LowerError(f"line {expr.line}: struct assignment type mismatch")
            self.emit_struct_copy(addr, src, vtype)
            return addr, vtype

        if expr.op == "=":
            value, rtype = self.rvalue(expr.value)
        else:
            binary_op = expr.op[:-1]  # "+=" -> "+"
            synthetic = ast.Binary(
                line=expr.line, op=binary_op, lhs=expr.target, rhs=expr.value
            )
            value, rtype = self.rvalue(synthetic)
        converted = self.convert(value, rtype, vtype)
        self.builder.store(converted, addr)
        if want_lvalue:
            return addr, vtype
        return converted, vtype

    def _lower_Conditional(self, expr: ast.Conditional, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        then_block = self.fn.new_block("sel.then")
        else_block = self.fn.new_block("sel.else")
        join = self.fn.new_block("sel.join")
        self.lower_condition(expr.cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        tval, ttype = self.rvalue(expr.then)
        then_end = self.builder.block
        self.builder.position_at_end(else_block)
        fval, ftype = self.rvalue(expr.otherwise)
        else_end = self.builder.block
        common = self.common_type(ttype, ftype, expr)
        self.builder.position_at_end(then_end)
        tval = self.convert(tval, ttype, common)
        self.builder.br(join)
        self.builder.position_at_end(else_end)
        fval = self.convert(fval, ftype, common)
        self.builder.br(join)
        self.builder.position_at_end(join)
        phi = self.builder.phi(common, "sel.val")
        add_phi_incoming(phi, tval, then_end)
        add_phi_incoming(phi, fval, else_end)
        return phi, common

    # member access / indexing

    def _receiver(self, expr):
        """(address, struct) of the class value ``expr`` reaches through
        ``.`` or ``->``."""
        recv, rtype = self.rvalue(expr.receiver)
        if expr.arrow:
            rtype = rtype.pointee if isinstance(rtype, PointerType) else None
        if not isinstance(rtype, StructType):
            raise LowerError(
                f"line {expr.line}: "
                + ("-> on non-class-pointer" if expr.arrow else ". on non-class value")
            )
        return recv, rtype

    def _lower_Member(self, expr: ast.Member, want_lvalue):
        base, struct = self._receiver(expr)
        found = self.sema.class_of_struct(struct).find_field(expr.member)
        if found is None:
            raise LowerError(
                f"line {expr.line}: class {struct.name} has no field {expr.member}"
            )
        offset, ftype = found
        if isinstance(ftype, ir.ArrayType):
            addr = self.builder.gep(
                base, ptr(ftype.element), offset=offset, name=f"{expr.member}.addr"
            )
            return addr, ptr(ftype.element)
        addr = self.builder.gep(base, ptr(ftype), offset=offset, name=f"{expr.member}.addr")
        if want_lvalue or isinstance(ftype, StructType):
            return addr, ftype
        return self.builder.load(addr, expr.member), ftype

    def _lower_Index(self, expr: ast.Index, want_lvalue):
        base, btype = self.rvalue(expr.base)
        if isinstance(btype, StructType):
            return self._call_on(expr, base, btype, "operator[]", [expr.index])
        if not isinstance(btype, PointerType):
            raise LowerError(f"line {expr.line}: subscript of non-pointer")
        index, itype = self.rvalue(expr.index)
        index = self.convert(index, itype, I64)
        elem = btype.pointee
        addr = self.builder.gep(
            base, ptr(elem), indices=[(index, elem.size())], name="elem.addr"
        )
        if want_lvalue or isinstance(elem, StructType):
            return addr, elem
        return self.builder.load(addr, "elem"), elem

    # calls

    def _lower_Call(self, expr: ast.Call, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        name = str(expr.name)
        simple = expr.name.simple

        # A local variable that is callable (functor) — obj(args).
        if simple is not None and simple in self.locals:
            local = self.locals[simple]
            base = local.type
            if isinstance(base, StructType):
                return self._lower_functor_call(expr, simple)
            if isinstance(base, PointerType) and isinstance(base.pointee, StructType):
                raise LowerError(
                    f"line {expr.line}: call through object pointer requires "
                    f"(*p)(...) or p->operator()(...)"
                )

        if simple in BUILTIN_MATH:
            return self._lower_math_builtin(expr, simple)
        if simple in BUILTIN_ATOMICS:
            return self._lower_atomic_builtin(expr, simple)
        if simple in ("min", "max"):
            return self._lower_minmax(expr, simple)
        if simple == "abs":
            value, vtype = self.rvalue(expr.args[0])
            if isinstance(vtype, FloatType):
                intr = MATH_INTRINSICS[f"math.fabs.f{vtype.bits}"]
                return self.builder.call(intr, [value], "abs"), vtype
            zero = _zero(vtype)
            neg = self.builder.binop("sub", zero, value, "abs.neg")
            cond = self.builder.icmp("slt", value, zero, "abs.lt")
            return self.builder.select(cond, neg, value, "abs"), vtype

        # Static method call Class::method(...)
        if len(expr.name.parts) == 2:
            cls_info = self.sema.lookup_class(expr.name.parts[0], self.namespace)
            if cls_info is not None:
                overloads = cls_info.find_methods(expr.name.parts[1])
                statics = [m for m in overloads if m.decl.is_static]
                if statics:
                    return self._emit_static_call(expr, cls_info, statics)

        # Method of the current class, called unqualified.
        if self.this_class is not None and simple is not None:
            overloads = self.this_class.find_methods(simple)
            if overloads:
                return self._emit_method_call(expr, overloads, expr.args, simple)

        # Free function.
        arg_pairs = [self.rvalue(a) for a in expr.args]
        arg_types = [t for _, t in arg_pairs]
        overloads = self.sema.find_free_functions(name, self.namespace)
        if overloads:
            chosen = self.sema.resolve_overload(
                overloads,
                arg_types,
                lambda fi: self._free_param_types(fi),
            )
            if chosen is None:
                raise LowerError(
                    f"line {expr.line}: no matching overload of {name} for "
                    f"{[str(t) for t in arg_types]}"
                )
            fn = self.unit.require_free(chosen)
            return self._finish_direct_call(fn, chosen.decl, arg_pairs, expr.line)
        templates = self.sema.find_function_templates(name, self.namespace)
        if templates:
            chosen_t, bindings = self._deduce_template(templates, arg_types, expr)
            inst = self.sema.instantiate_function_template(chosen_t, bindings)
            fn = self.unit.require_free(inst)
            return self._finish_direct_call(fn, inst.decl, arg_pairs, expr.line)
        raise LowerError(f"line {expr.line}: unknown function {name}")

    def _free_param_types(self, fn_info: FreeFunctionInfo) -> list[Type]:
        return [
            self.sema.resolve_type(p.type, {}, fn_info.decl.namespace)
            for p in fn_info.decl.params
        ]

    def _deduce_template(self, templates, arg_types, expr):
        for template in templates:
            if len(template.params) != len(arg_types):
                continue
            bindings: dict[str, Type] = {}
            ok = True
            for param, have in zip(template.params, arg_types):
                want = param.type
                stripped = have
                depth = want.pointer_depth + (1 if want.is_reference else 0)
                for _ in range(depth):
                    if isinstance(stripped, PointerType):
                        stripped = stripped.pointee
                    else:
                        ok = False
                        break
                if not ok:
                    break
                if want.name in template.template_params:
                    existing = bindings.get(want.name)
                    if existing is not None and existing != stripped:
                        ok = False
                        break
                    bindings[want.name] = stripped
            if ok and len(bindings) == len(template.template_params):
                return template, bindings
        raise LowerError(
            f"line {expr.line}: cannot deduce template arguments for call"
        )

    def _lower_math_builtin(self, expr, simple):
        base, bits = BUILTIN_MATH[simple]
        intr = MATH_INTRINSICS[f"math.{base}.f{bits}"]
        ftype = F32 if bits == 32 else F64
        args = []
        for arg in expr.args:
            value, vtype = self.rvalue(arg)
            args.append(self.convert(value, vtype, ftype))
        return self.builder.call(intr, args, simple), ftype

    def _lower_atomic_builtin(self, expr, simple):
        intr = ALL_INTRINSICS[BUILTIN_ATOMICS[simple]]
        pointer, ptype = self.rvalue(expr.args[0])
        rest = []
        for arg, want in zip(expr.args[1:], intr.ftype.params[1:]):
            value, vtype = self.rvalue(arg)
            rest.append(self.convert(value, vtype, want))
        return self.builder.call(intr, [pointer, *rest], simple), intr.return_type

    def _lower_minmax(self, expr, simple):
        lhs, ltype = self.rvalue(expr.args[0])
        rhs, rtype = self.rvalue(expr.args[1])
        common = self.common_type(ltype, rtype, expr)
        lhs = self.convert(lhs, ltype, common)
        rhs = self.convert(rhs, rtype, common)
        if isinstance(common, FloatType):
            intr = MATH_INTRINSICS[f"math.f{simple}.f{common.bits}"]
            return self.builder.call(intr, [lhs, rhs], simple), common
        pred = ("slt" if common.signed else "ult") if simple == "min" else (
            "sgt" if common.signed else "ugt"
        )
        cond = self.builder.icmp(pred, lhs, rhs, f"{simple}.cmp")
        return self.builder.select(cond, lhs, rhs, simple), common

    def _lower_MethodCall(self, expr: ast.MethodCall, want_lvalue):
        recv, struct = self._receiver(expr)
        return self._call_on(expr, recv, struct, expr.method, expr.args)

    def _lower_CallOperator(self, expr: ast.CallOperator, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        recv, struct = self.rvalue(expr.receiver)
        if not isinstance(struct, StructType):
            raise LowerError(f"line {expr.line}: call of non-functor")
        return self._call_on(expr, recv, struct, "operator()", expr.args)

    def _lower_functor_call(self, expr: ast.Call, simple: str):
        local = self.locals[simple]
        return self._call_on(expr, local.alloca, local.type, "operator()", expr.args)

    def _call_on(self, expr, recv, struct: StructType, method_name: str, args):
        """``method_name(args)`` on the class value at address ``recv``."""
        info = self.sema.class_of_struct(struct)
        overloads = info.find_methods(method_name)
        if not overloads:
            raise LowerError(f"line {expr.line}: class {info.name} has no {method_name}")
        return self._emit_method_call(expr, overloads, args, method_name, (recv, info))

    def _emit_static_call(self, expr, info: ClassInfo, overloads):
        arg_pairs = [self.rvalue(a) for a in expr.args]
        arg_types = [t for _, t in arg_pairs]
        chosen = self.sema.resolve_overload(
            overloads, arg_types, lambda m: self._method_param_types(info, m)
        )
        if chosen is None:
            raise LowerError(f"line {expr.line}: no matching static overload")
        fn = self.unit.require_method(info, chosen)
        return self._finish_direct_call(fn, chosen.decl, arg_pairs, expr.line, this_value=None)

    def _method_param_types(self, info: ClassInfo, method: MethodInfo) -> list[Type]:
        return [
            self.sema.resolve_type(
                p.type, info.template_bindings, info.decl.namespace
            )
            for p in method.decl.params
        ]

    def _emit_method_call(
        self,
        expr,
        overloads: list[MethodInfo],
        args,
        method_name: str,
        receiver_value=None,
    ):
        """Call the overload of ``args`` among the receiver's
        ``overloads`` on ``receiver_value`` — an ``(address, class)`` pair —
        or, without one, on ``this``."""
        if receiver_value is not None:
            recv, recv_info = receiver_value
        else:
            recv, _ = self.rvalue_name_this()
            recv_info = self.this_class

        arg_pairs = [self.rvalue(a) for a in args]
        arg_types = [t for _, t in arg_pairs]
        chosen: MethodInfo = self.sema.resolve_overload(
            overloads, arg_types, lambda m: self._method_param_types(m.owner, m)
        )
        if chosen is None:
            raise LowerError(
                f"line {expr.line}: no matching overload of {method_name} on "
                f"{recv_info.name} for {[str(t) for t in arg_types]}"
            )

        # ``this`` adjustment: the chosen method may live in a base class.
        owner = chosen.owner
        offset = recv_info.upcast_offset(owner)
        if offset is None:
            raise LowerError(
                f"line {expr.line}: {owner.name} is not a base of {recv_info.name}"
            )
        this_value = recv
        if offset:
            this_value = self.builder.gep(
                recv, ptr(owner.struct_type), offset=offset, name="this.adj"
            )

        if chosen.is_virtual:
            return self._finish_virtual_call(
                expr, recv_info, chosen, this_value, arg_pairs
            )
        fn = self.unit.require_method(owner, chosen)
        return self._finish_direct_call(
            fn, chosen.decl, arg_pairs, expr.line, this_value=this_value
        )

    def _finish_virtual_call(self, expr, recv_info, chosen: MethodInfo, this_value, arg_pairs):
        owner = chosen.owner
        ret = self.sema.resolve_type(
            chosen.decl.return_type, owner.template_bindings, owner.decl.namespace
        )
        if isinstance(ret, StructType):
            raise LowerError(
                f"line {expr.line}: virtual methods returning classes by value "
                "are not supported"
            )
        converted = []
        for (value, vtype), param in zip(arg_pairs, chosen.decl.params):
            want = self.sema.resolve_type(
                param.type, owner.template_bindings, owner.decl.namespace
            )
            if (
                isinstance(vtype, StructType)
                and isinstance(want, PointerType)
                and want.pointee == vtype
            ):
                # reference binding: a class value's representation IS its
                # address (same rule as _finish_direct_call)
                converted.append(value)
            else:
                converted.append(self.convert(value, vtype, want))
        # Dispatch class: the *static* receiver class — CHA explores its
        # subclasses (paper section 3.2).
        call = self.builder.vcall(
            this_value,
            recv_info,
            chosen.vtable_slot,
            ret,
            converted,
            name=f"v.{chosen.decl.name}",
        )
        if isinstance(ret, VoidType):
            return None
        return self._call_result(call, chosen.decl, ret)

    def _finish_direct_call(self, fn: ir.Function, decl, arg_pairs, line, this_value="none"):
        converted: list[ir.Value] = []
        arg_index = 0
        sret_slot = None
        fn_params = list(fn.ftype.params)
        if fn.attributes.get("sret"):
            sret_type = fn_params[0].pointee
            sret_slot = self.builder.alloca(sret_type, "sret.tmp")
            converted.append(sret_slot)
            arg_index += 1
        if this_value != "none" and this_value is not None:
            converted.append(this_value)
            arg_index += 1
        elif this_value is None and len(fn_params) > arg_index and fn.args and fn.args[arg_index].name == "this":
            raise LowerError(f"line {line}: static call resolved to instance method")
        param_decls = list(decl.params) if decl is not None else []
        for pos, (value, vtype) in enumerate(arg_pairs):
            want = fn_params[arg_index]
            if isinstance(vtype, StructType):
                is_ref = pos < len(param_decls) and param_decls[pos].type.is_reference
                if is_ref:
                    # reference binding: pass the object's address directly
                    converted.append(value)
                else:
                    # byval: copy into a temp, pass its address
                    temp = self.builder.alloca(vtype, "byval.tmp")
                    self.emit_struct_copy(temp, value, vtype)
                    converted.append(temp)
            else:
                converted.append(self.convert(value, vtype, want))
            arg_index += 1
        call = self.builder.call(fn, converted, fn.name.split(".")[-1])
        if sret_slot is not None:
            return sret_slot, fn_params[0].pointee
        if isinstance(fn.return_type, VoidType):
            return None
        return self._call_result(call, decl, fn.return_type)

    def _call_result(self, call, decl, ret: Type):
        """``(value, type)`` of ``call``.  A reference result is the address
        of what it names: a class value as it is, a scalar loaded."""
        if decl is None or not decl.return_type.is_reference:
            return call, ret
        if isinstance(ret.pointee, StructType):
            return call, ret.pointee
        return self.builder.load(call, "ref"), ret.pointee

    # new / delete / casts / sizeof

    def _lower_NewExpr(self, expr: ast.NewExpr, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        base = self.sema.resolve_type(
            ast.TypeRef(
                line=expr.line,
                name=expr.type.name,
                template_args=expr.type.template_args,
                pointer_depth=expr.type.pointer_depth,
            ),
            self.bindings,
            self.namespace,
        )
        from ..ir.builder import make_intrinsic

        malloc = _malloc_intrinsic()
        if expr.array_size is not None:
            count, ctype = self.rvalue(expr.array_size)
            count = self.convert(count, ctype, I64)
            nbytes = self.builder.binop(
                "mul", count, ir.const_int(base.size(), I64), "new.bytes"
            )
            raw = self.builder.call(malloc, [nbytes], "new.arr")
            typed = self.builder.cast("bitcast", raw, ptr(base), "new.typed")
            return typed, ptr(base)
        raw = self.builder.call(malloc, [ir.const_int(base.size(), I64)], "new.obj")
        typed = self.builder.cast("bitcast", raw, ptr(base), "new.typed")
        if isinstance(base, StructType):
            info = self.sema.class_of_struct(base)
            if info.constructors or info.polymorphic:
                self.emit_constructor_call(typed, base, expr.ctor_args, expr.line)
        return typed, ptr(base)

    def _lower_DeleteExpr(self, expr: ast.DeleteExpr, want_lvalue):
        pointer, ptype = self.rvalue(expr.operand)
        self.builder.call(_free_intrinsic(), [pointer], "")
        return None

    def _lower_Cast(self, expr: ast.Cast, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        value, vtype = self.rvalue(expr.operand)
        target = self.sema.resolve_type(expr.type, self.bindings, self.namespace)
        if isinstance(target, PointerType) and isinstance(vtype, PointerType):
            return self.builder.cast("bitcast", value, target, "cast"), target
        return self.convert(value, vtype, target, explicit=True), target

    def _lower_SizeofExpr(self, expr: ast.SizeofExpr, want_lvalue):
        self._no_lvalue(want_lvalue, expr)
        target = self.sema.resolve_type(expr.type, self.bindings, self.namespace)
        return ir.const_int(target.size(), U64), U64

    # -- helpers --------------------------------------------------------------------

    def emit_constructor_call(self, addr, struct: StructType, args, line) -> None:
        info = self.sema.class_of_struct(struct)
        self.unit._declare_class(info)
        ctor_fns = getattr(info, "ctor_functions", [])
        if not ctor_fns:
            if args:
                raise LowerError(f"line {line}: {info.name} has no constructor")
            if info.polymorphic:
                self._store_vptr(addr, info)
            return
        arg_pairs = [self.rvalue(a) for a in (args or [])]
        arg_types = [t for _, t in arg_pairs]
        matching = [
            (ctor, fn)
            for ctor, fn in zip(info.constructors, ctor_fns)
            if len(ctor.params) == len(arg_types)
        ]
        if not matching:
            raise LowerError(
                f"line {line}: no {len(arg_types)}-argument constructor on "
                f"{info.name}"
            )
        ctor, fn = matching[0]
        self._finish_direct_call(fn, None, arg_pairs, line, this_value=addr)

    def _store_vptr(self, addr, info: ClassInfo) -> None:
        gvar = self._vtable_global(info)
        slot = self.builder.gep(
            addr, ptr(ptr(I64)),
            offset=info.find_field(VPTR_FIELD)[0],
            name="vptr.slot",
        )
        self.builder.store(gvar, slot)

    def emit_struct_copy(self, dst, src, struct: StructType) -> None:
        """Field-wise copy (recursing into embedded structs/arrays)."""
        for field in struct.fields:
            ftype = field.type
            if isinstance(ftype, StructType):
                sub_dst = self.builder.gep(dst, ptr(ftype), offset=field.offset)
                sub_src = self.builder.gep(src, ptr(ftype), offset=field.offset)
                self.emit_struct_copy(sub_dst, sub_src, ftype)
                continue
            if isinstance(ftype, ir.ArrayType):
                for index in range(ftype.count):
                    off = field.offset + index * ftype.element.size()
                    s = self.builder.gep(src, ptr(ftype.element), offset=off)
                    d = self.builder.gep(dst, ptr(ftype.element), offset=off)
                    self.builder.store(self.builder.load(s), d)
                continue
            s = self.builder.gep(src, ptr(ftype), offset=field.offset)
            d = self.builder.gep(dst, ptr(ftype), offset=field.offset)
            self.builder.store(self.builder.load(s, field.name), d)

    def to_bool(self, value, vtype):
        if vtype == BOOL:
            return value
        if isinstance(vtype, IntType):
            return self.builder.icmp("ne", value, _zero(vtype), "tobool")
        if isinstance(vtype, FloatType):
            return self.builder.fcmp("one", value, _zero(vtype), "tobool")
        if isinstance(vtype, PointerType):
            as_int = self.builder.cast("ptrtoint", value, U64, "p.int")
            return self.builder.icmp("ne", as_int, ir.const_int(0, U64), "tobool")
        raise LowerError(f"cannot convert {vtype} to bool")

    def common_type(self, a: Type, b: Type, expr) -> Type:
        if a == b:
            return a
        if isinstance(a, FloatType) and isinstance(b, FloatType):
            return a if a.bits >= b.bits else b
        if isinstance(a, FloatType):
            return a
        if isinstance(b, FloatType):
            return b
        if isinstance(a, IntType) and isinstance(b, IntType):
            bits = max(a.bits, b.bits, 32)
            signed = a.signed and b.signed
            if bits == 32:
                return I32 if signed else U32
            return I64 if signed else U64
        if isinstance(a, PointerType) and isinstance(b, PointerType):
            return a
        if isinstance(a, PointerType) and isinstance(b, IntType):
            return a
        if isinstance(b, PointerType) and isinstance(a, IntType):
            return b
        raise LowerError(f"line {expr.line}: no common type of {a} and {b}")

    def convert(self, value, have: Type, want: Type, explicit: bool = False):
        if have == want:
            return value
        if isinstance(have, IntType) and isinstance(want, IntType):
            if want.bits > have.bits:
                op = "sext" if have.signed else "zext"
                return self.builder.cast(op, value, want, "conv")
            if want.bits < have.bits:
                return self.builder.cast("trunc", value, want, "conv")
            return self.builder.cast("bitcast", value, want, "conv")
        if isinstance(have, IntType) and isinstance(want, FloatType):
            op = "sitofp" if have.signed else "uitofp"
            return self.builder.cast(op, value, want, "conv")
        if isinstance(have, FloatType) and isinstance(want, IntType):
            return self.builder.cast("fptosi", value, want, "conv")
        if isinstance(have, FloatType) and isinstance(want, FloatType):
            op = "fpext" if want.bits > have.bits else "fptrunc"
            return self.builder.cast(op, value, want, "conv")
        if isinstance(have, PointerType) and isinstance(want, PointerType):
            hp, wp = have.pointee, want.pointee
            if isinstance(hp, StructType) and isinstance(wp, StructType):
                h_info = self.sema.class_of_struct(hp)
                w_info = self.sema.class_of_struct(wp)
                if h_info is not None and w_info is not None:
                    offset = h_info.upcast_offset(w_info)
                    if offset is not None:
                        if offset == 0:
                            return self.builder.cast("bitcast", value, want, "up")
                        return self.builder.gep(value, want, offset=offset, name="upcast")
                    # downcast (static_cast): offset in the other direction
                    offset = w_info.upcast_offset(h_info)
                    if offset is not None and explicit:
                        if offset == 0:
                            return self.builder.cast("bitcast", value, want, "down")
                        neg = self.builder.gep(value, want, offset=-offset, name="downcast")
                        return neg
            return self.builder.cast("bitcast", value, want, "pconv")
        if isinstance(have, PointerType) and isinstance(want, IntType):
            return self.builder.cast("ptrtoint", value, want, "conv")
        if isinstance(have, IntType) and isinstance(want, PointerType):
            return self.builder.cast("inttoptr", value, want, "conv")
        raise LowerError(f"cannot convert {have} to {want}")

    def _no_lvalue(self, want_lvalue: bool, expr) -> None:
        if want_lvalue:
            raise LowerError(
                f"line {expr.line}: expression is not assignable "
                f"({type(expr).__name__})"
            )


# -- module-level helpers ------------------------------------------------------------


_MALLOC = None
_FREE = None


def _malloc_intrinsic():
    global _MALLOC
    if _MALLOC is None:
        from ..ir.builder import make_intrinsic

        _MALLOC = make_intrinsic("svm.malloc", ptr(I8), [I64], side_effects=True)
    return _MALLOC


def _free_intrinsic():
    global _FREE
    if _FREE is None:
        from ..ir.builder import make_intrinsic

        _FREE = make_intrinsic("svm.free", VOID, [ptr(I8)], side_effects=True)
    return _FREE


def _zero(type_: Type):
    if isinstance(type_, FloatType):
        return ir.Constant(type_, 0.0)
    if isinstance(type_, PointerType):
        return ir.Constant(type_, 0)
    return ir.Constant(type_, 0)


def _const_initializer(expr: ast.Expr):
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.FloatLiteral):
        return expr.value
    if isinstance(expr, ast.BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _const_initializer(expr.operand)
        return -inner if inner is not None else None
    return None


def lower_translation_unit(sema: Sema) -> ir.Module:
    return UnitLowerer(sema).lower_unit()
