"""Semantic analysis for MiniC++.

Responsibilities:

* resolve syntactic :class:`~repro.minicpp.ast.TypeRef` into IR types,
  instantiating class templates on demand (monomorphization);
* compute class layouts with C++ rules: vtable pointer first for
  polymorphic classes, base-class subobjects in declaration order, then own
  fields (multiple inheritance supported for layout; virtual dispatch goes
  through the primary base — documented simplification);
* build vtables and the class hierarchy for class-hierarchy analysis
  (the devirtualization pass consumes both);
* register free functions (including function templates) and methods with
  overload sets, and perform overload resolution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .. import ir
from ..ir.types import (
    BOOL,
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    IntType,
    PointerType,
    StructType,
    Type,
    U8,
    U16,
    U32,
    U64,
    VOID,
    ptr,
)
from . import ast

PRIMITIVES: dict[str, Type] = {
    "void": VOID,
    "bool": BOOL,
    "char": I8,
    "uchar": U8,
    "short": I16,
    "ushort": U16,
    "int": I32,
    "uint": U32,
    "long": I64,
    "ulong": U64,
    "float": F32,
    "double": F64,
}

VPTR_FIELD = "__vptr"


class SemaError(Exception):
    pass


@dataclass
class MethodInfo:
    """One concrete (non-template) method of a concrete class."""

    owner: "ClassInfo"
    decl: ast.FunctionDecl
    mangled: str
    is_virtual: bool = False
    vtable_slot: Optional[int] = None
    ir_function: Optional[ir.Function] = None


@dataclass
class ClassInfo:
    name: str  # fully-qualified, template-mangled
    decl: ast.ClassDecl
    bases: list["ClassInfo"] = dc_field(default_factory=list)
    struct_type: Optional[StructType] = None
    methods: dict[str, list[MethodInfo]] = dc_field(default_factory=dict)
    constructors: list[ast.ConstructorDecl] = dc_field(default_factory=list)
    vtable: list[MethodInfo] = dc_field(default_factory=list)
    vtable_keys: list[str] = dc_field(default_factory=list)  # slot -> name/arity key
    template_bindings: dict[str, Type] = dc_field(default_factory=dict)
    polymorphic: bool = False
    subclasses: list[str] = dc_field(default_factory=list)

    def all_methods(self) -> list[MethodInfo]:
        return [m for overloads in self.methods.values() for m in overloads]

    def find_methods(self, name: str) -> list[MethodInfo]:
        found = list(self.methods.get(name, ()))
        for base in self.bases:
            for method in base.find_methods(name):
                # Derived declarations hide base ones with the same arity.
                if not any(
                    len(m.decl.params) == len(method.decl.params)
                    for m in self.methods.get(name, ())
                ):
                    found.append(method)
        return found

    def is_subclass_of(self, other: "ClassInfo") -> bool:
        if self is other:
            return True
        return any(base.is_subclass_of(other) for base in self.bases)

    def find_field(self, name: str) -> Optional[tuple[int, Type]]:
        """(byte offset, type) of ``name``, searching base subobjects."""
        if self.struct_type.has_field(name):
            field = self.struct_type.field_named(name)
            return field.offset, field.type
        for base in self.bases:
            sub = self.struct_type.field_named(_base_field_name(base))
            found = base.find_field(name)
            if found is not None:
                return sub.offset + found[0], found[1]
        return None

    def upcast_offset(self, target: "ClassInfo") -> Optional[int]:
        """Byte offset added to a ``this`` pointer to view it as ``target``."""
        if target is self:
            return 0
        for base in self.bases:
            inner = base.upcast_offset(target)
            if inner is not None:
                sub = self.struct_type.field_named(_base_field_name(base))
                return sub.offset + inner
        return None


@dataclass
class FreeFunctionInfo:
    decl: ast.FunctionDecl
    mangled: str
    qualified: str  # ns::name
    ir_function: Optional[ir.Function] = None


class Sema:
    """Symbol tables and type resolution for one translation unit."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.classes: dict[str, ClassInfo] = {}
        #: each class's struct type -> the class, filled as the types are made
        self.struct_classes: dict[StructType, ClassInfo] = {}
        self.class_templates: dict[str, ast.ClassDecl] = {}
        self.functions: dict[str, list[FreeFunctionInfo]] = {}
        self.function_templates: dict[str, list[ast.FunctionDecl]] = {}
        self.globals: dict[str, ast.GlobalVarDecl] = {}
        self._register_declarations()
        self._instantiate_concrete_classes()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["struct_classes"]  # derived from ``classes``
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.struct_classes = {
            info.struct_type: info
            for info in self.classes.values()
            if info.struct_type is not None
        }

    # -- registration ---------------------------------------------------------

    def _register_declarations(self) -> None:
        for cls in self.unit.classes:
            qualified = _qualify(cls.namespace, cls.name)
            if cls.template_params:
                self.class_templates[qualified] = cls
                if cls.name != qualified:
                    self.class_templates.setdefault(cls.name, cls)
            else:
                if qualified in self.classes:
                    raise SemaError(f"duplicate class {qualified}")
                self.classes[qualified] = ClassInfo(name=qualified, decl=cls)
        for fn in self.unit.functions:
            qualified = _qualify(fn.namespace, fn.name)
            if fn.owner_class is not None:
                continue  # out-of-line methods attached later
            if fn.template_params:
                self.function_templates.setdefault(qualified, []).append(fn)
            else:
                info = FreeFunctionInfo(
                    decl=fn, mangled=_mangle_free(qualified, fn), qualified=qualified
                )
                self.functions.setdefault(qualified, []).append(info)
        for gvar in self.unit.globals:
            self.globals[_qualify(gvar.namespace, gvar.name)] = gvar
        self._attach_out_of_line_methods()

    def _attach_out_of_line_methods(self) -> None:
        for fn in self.unit.functions:
            if fn.owner_class is None:
                continue
            qualified = _qualify(fn.namespace, fn.owner_class)
            decl = (
                self.classes.get(qualified).decl
                if qualified in self.classes
                else self.class_templates.get(qualified)
            )
            if decl is None:
                raise SemaError(f"out-of-line method for unknown class {qualified}")
            for method in decl.methods:
                if method.name == fn.name and method.body is None and len(
                    method.params
                ) == len(fn.params):
                    method.body = fn.body
                    break
            else:
                decl.methods.append(fn)

    def _instantiate_concrete_classes(self) -> None:
        for info in list(self.classes.values()):
            self._complete_class(info)

    # -- type resolution ---------------------------------------------------------

    def resolve_type(
        self,
        ref: ast.TypeRef,
        bindings: Optional[dict[str, Type]] = None,
        namespace: tuple[str, ...] = (),
    ) -> Type:
        bindings = bindings or {}
        # A pointer/reference target need not be complete yet (recursive
        # types like linked-list nodes depend on this).
        need_complete = ref.pointer_depth == 0 and not ref.is_reference
        base = self._resolve_base_type(ref, bindings, namespace, need_complete)
        result = base
        for _ in range(ref.pointer_depth):
            result = ptr(result)
        if ref.is_reference:
            result = ptr(result)
        return result

    def _resolve_base_type(self, ref: ast.TypeRef, bindings, namespace, need_complete=True) -> Type:
        name = ref.name
        if name in bindings and not ref.template_args:
            return bindings[name]
        if name in PRIMITIVES:
            return PRIMITIVES[name]
        info = self.lookup_class_ref(ref, bindings, namespace, need_complete)
        if info is not None:
            return info.struct_type
        raise SemaError(f"unknown type {ref} (line {ref.line})")

    def lookup_class_ref(
        self,
        ref: ast.TypeRef,
        bindings=None,
        namespace: tuple[str, ...] = (),
        need_complete: bool = True,
    ) -> Optional[ClassInfo]:
        bindings = bindings or {}
        if ref.template_args:
            args = [
                self.resolve_type(a, bindings, namespace) for a in ref.template_args
            ]
            return self.instantiate_class_template(ref.name, args, namespace)
        for qualified in _search_names(namespace, ref.name):
            info = self.classes.get(qualified)
            if info is not None:
                self._struct_of(info)
                if need_complete:
                    self._complete_class(info)
                return info
        return None

    def lookup_class(self, name: str, namespace: tuple[str, ...] = ()) -> Optional[ClassInfo]:
        for qualified in _search_names(namespace, name):
            info = self.classes.get(qualified)
            if info is not None:
                self._complete_class(info)
                return info
        return None

    def class_of_struct(self, struct_type: StructType) -> Optional[ClassInfo]:
        return self.struct_classes.get(struct_type)

    def _struct_of(self, info: ClassInfo) -> StructType:
        """``info``'s struct type, created (still incomplete) on first use."""
        if info.struct_type is None:
            struct = StructType(name=info.name.replace("::", "__"))
            if struct in self.struct_classes:  # types compare by name
                raise SemaError(
                    f"classes {self.struct_classes[struct].name} and {info.name} "
                    f"share the struct name {struct.name}"
                )
            info.struct_type = struct
            self.struct_classes[struct] = info
        return info.struct_type

    # -- template instantiation ------------------------------------------------

    def instantiate_class_template(
        self, name: str, args: list[Type], namespace: tuple[str, ...] = ()
    ) -> ClassInfo:
        template = None
        for qualified in _search_names(namespace, name):
            template = self.class_templates.get(qualified)
            if template is not None:
                break
        if template is None:
            raise SemaError(f"unknown class template {name}")
        if len(args) != len(template.template_params):
            raise SemaError(
                f"template {name} expects {len(template.template_params)} args, "
                f"got {len(args)}"
            )
        mangled = _mangle_template(name, args)
        existing = self.classes.get(mangled)
        if existing is not None:
            self._complete_class(existing)
            return existing
        bindings = dict(zip(template.template_params, args))
        clone = _substitute_class(template, bindings, mangled)
        info = ClassInfo(name=mangled, decl=clone, template_bindings=bindings)
        self.classes[mangled] = info
        self._complete_class(info)
        return info

    # -- class completion (layout + vtable) --------------------------------------

    def _complete_class(self, info: ClassInfo) -> None:
        if info.struct_type is not None and info.struct_type.complete:
            return
        if info.struct_type is not None and getattr(info, "_in_progress", False):
            raise SemaError(f"recursive value-embedding of class {info.name}")
        self._struct_of(info)
        info._in_progress = True
        decl = info.decl
        namespace = decl.namespace

        # Resolve bases first.
        info.bases = []
        for base_spec in decl.bases:
            base_ref = ast.TypeRef(
                line=base_spec.line,
                name=base_spec.name,
                template_args=base_spec.template_args,
            )
            base_info = self.lookup_class_ref(
                base_ref, info.template_bindings, namespace
            )
            if base_info is None:
                raise SemaError(f"unknown base class {base_spec.name} of {info.name}")
            self._complete_class(base_info)
            info.bases.append(base_info)
            base_info.subclasses.append(info.name)

        own_virtual = any(m.is_virtual for m in decl.methods)
        info.polymorphic = own_virtual or any(b.polymorphic for b in info.bases)

        # Layout: C++ object model with embedded base subobjects.  The
        # primary (first) base sits at offset 0 so derived and primary-base
        # pointers coincide and the vtable pointer is shared; other bases
        # get their own subobjects at non-zero offsets (upcasts adjust).
        layout: list[tuple[str, Type]] = []
        primary = info.bases[0] if info.bases else None
        if info.polymorphic and (primary is None or not primary.polymorphic):
            layout.append((VPTR_FIELD, ptr(I64)))
        seen_fields: set[str] = set()
        for base in info.bases:
            layout.append((_base_field_name(base), base.struct_type))
        for fdecl in decl.fields:
            ftype = self.resolve_type(fdecl.type, info.template_bindings, namespace)
            if fdecl.array_size is not None:
                count = _const_int(fdecl.array_size)
                ftype = ir.ArrayType(ftype, count)
            if fdecl.name in seen_fields:
                raise SemaError(f"duplicate field {fdecl.name} in {info.name}")
            seen_fields.add(fdecl.name)
            layout.append((fdecl.name, ftype))
        info.struct_type.finalize(layout)
        info._in_progress = False

        # Methods + vtable.
        info.constructors = list(decl.constructors)
        for method_decl in decl.methods:
            mi = MethodInfo(
                owner=info,
                decl=method_decl,
                mangled=_mangle_method(info.name, method_decl),
                is_virtual=method_decl.is_virtual,
            )
            info.methods.setdefault(method_decl.name, []).append(mi)

        # vtable: start from the primary base's table, then override/extend.
        info.vtable = []
        info.vtable_keys = []
        if primary is not None and primary.polymorphic:
            info.vtable = list(primary.vtable)
            info.vtable_keys = list(primary.vtable_keys)
        for method_decl in decl.methods:
            key = _vslot_key(method_decl)
            overriding = key in info.vtable_keys
            is_virtual = method_decl.is_virtual or overriding
            if not is_virtual:
                continue
            mi = next(
                m
                for m in info.methods[method_decl.name]
                if m.decl is method_decl
            )
            mi.is_virtual = True
            if overriding:
                slot = info.vtable_keys.index(key)
                info.vtable[slot] = mi
                mi.vtable_slot = slot
            else:
                mi.vtable_slot = len(info.vtable)
                info.vtable.append(mi)
                info.vtable_keys.append(key)

    # -- overload resolution ----------------------------------------------------

    def resolve_overload(
        self,
        candidates: list,
        arg_types: list[Type],
        get_params,
    ):
        """Pick the best candidate for ``arg_types``.

        Exact match beats convertible match; ambiguity and no-match raise.
        ``get_params`` maps a candidate to its list of parameter IR types.
        """
        viable = []
        for candidate in candidates:
            params = get_params(candidate)
            if len(params) != len(arg_types):
                continue
            score = 0
            ok = True
            for have, want in zip(arg_types, params):
                rank = _conversion_rank(have, want)
                if rank is None:
                    ok = False
                    break
                score += rank
            if ok:
                viable.append((score, candidate))
        if not viable:
            return None
        viable.sort(key=lambda pair: pair[0])
        if len(viable) > 1 and viable[0][0] == viable[1][0]:
            raise SemaError(
                f"ambiguous overloaded call with argument types "
                f"{[str(t) for t in arg_types]}"
            )
        return viable[0][1]

    def find_free_functions(
        self, name: str, namespace: tuple[str, ...] = ()
    ) -> list[FreeFunctionInfo]:
        for qualified in _search_names(namespace, name):
            found = self.functions.get(qualified)
            if found:
                return found
        return []

    def find_function_templates(self, name, namespace=()):
        for qualified in _search_names(namespace, name):
            found = self.function_templates.get(qualified)
            if found:
                return found
        return []

    def instantiate_function_template(
        self, template: ast.FunctionDecl, bindings: dict[str, Type]
    ) -> FreeFunctionInfo:
        mangled_name = template.name + "." + ".".join(
            _type_tag(bindings[p]) for p in template.template_params
        )
        qualified = _qualify(template.namespace, mangled_name)
        for existing in self.functions.get(qualified, ()):
            return existing
        clone = _substitute_function(template, bindings, mangled_name)
        info = FreeFunctionInfo(
            decl=clone, mangled=_mangle_free(qualified, clone), qualified=qualified
        )
        self.functions.setdefault(qualified, []).append(info)
        return info

    # -- hierarchy export (for devirt) -------------------------------------------

    def class_hierarchy(self) -> dict[str, list[str]]:
        return {name: list(info.subclasses) for name, info in self.classes.items()}


# -- conversions -----------------------------------------------------------------


def _conversion_rank(have: Type, want: Type) -> Optional[int]:
    """0 exact, 1 promotion, 2 conversion, None not allowed."""
    if have == want:
        return 0
    # binding a class value to a reference parameter (T -> T&)
    if (
        isinstance(have, StructType)
        and isinstance(want, PointerType)
        and want.pointee == have
    ):
        return 0
    if isinstance(have, IntType) and isinstance(want, IntType):
        return 1 if want.bits >= have.bits else 2
    if isinstance(have, IntType) and isinstance(want, ir.FloatType):
        return 2
    if isinstance(have, ir.FloatType) and isinstance(want, ir.FloatType):
        return 1 if want.bits >= have.bits else 2
    if isinstance(have, ir.FloatType) and isinstance(want, IntType):
        return 2
    if isinstance(have, PointerType) and isinstance(want, PointerType):
        hp, wp = have.pointee, want.pointee
        if hp == wp:
            return 0
        if isinstance(wp, IntType) and wp.bits == 8:
            return 2  # any pointer -> char*/void*
        if isinstance(hp, StructType) and isinstance(wp, StructType):
            return 1  # derived* -> base* checked by the lowering
        return 2
    return None


# -- mangling / helpers ------------------------------------------------------------


def _base_field_name(base: "ClassInfo") -> str:
    return "__base_" + base.name.replace("::", "_").replace("<", "_").replace(
        ">", "_"
    ).replace(", ", "_")


def _qualify(namespace: tuple[str, ...], name: str) -> str:
    return "::".join((*namespace, name)) if namespace else name


def _search_names(namespace: tuple[str, ...], name: str) -> list[str]:
    """Lookup order: innermost namespace outwards, then global."""
    if "::" in name:
        return [name]
    result = []
    for depth in range(len(namespace), -1, -1):
        result.append(_qualify(namespace[:depth], name))
    return result


def _type_tag(type_: Type) -> str:
    text = str(type_)
    return (
        text.replace("*", "p").replace("%", "").replace(" ", "").replace("[", "a")
        .replace("]", "").replace("x", "_")
    )


def _mangle_template(name: str, args: list[Type]) -> str:
    return f"{name}<{', '.join(str(a) for a in args)}>"


def _mangle_method(class_name: str, decl: ast.FunctionDecl) -> str:
    base = class_name.replace("::", ".").replace("<", "_").replace(">", "_").replace(", ", "_")
    op = decl.name.replace("operator()", "call_op").replace("operator[]", "index_op")
    op = _sanitize_op(op)
    tags = "".join("_" + _typeref_tag(p.type) for p in decl.params)
    return f"{base}.{op}.{len(decl.params)}{tags}"


def _mangle_free(qualified: str, decl: ast.FunctionDecl) -> str:
    tags = "".join("_" + _typeref_tag(p.type) for p in decl.params)
    return f"{qualified.replace('::', '.')}.{len(decl.params)}{tags}"


def _typeref_tag(ref: ast.TypeRef) -> str:
    return (
        ref.name.replace("::", "_").replace("<", "I").replace(">", "I").replace(
            ", ", "_"
        )
        + "p" * ref.pointer_depth
        + ("r" if ref.is_reference else "")
    )


def _sanitize_op(name: str) -> str:
    table = {
        "operator+": "op_add",
        "operator-": "op_sub",
        "operator*": "op_mul",
        "operator/": "op_div",
        "operator%": "op_mod",
        "operator==": "op_eq",
        "operator!=": "op_ne",
        "operator<": "op_lt",
        "operator>": "op_gt",
        "operator<=": "op_le",
        "operator>=": "op_ge",
        "operator+=": "op_iadd",
        "operator-=": "op_isub",
        "operator*=": "op_imul",
        "operator/=": "op_idiv",
        "operator=": "op_assign",
    }
    return table.get(name, name)


def _vslot_key(decl: ast.FunctionDecl) -> str:
    return f"{decl.name}/{len(decl.params)}"


def _const_int(expr: ast.Expr) -> int:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.Binary):
        lhs = _const_int(expr.lhs)
        rhs = _const_int(expr.rhs)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b,
        }
        if expr.op in ops:
            return ops[expr.op](lhs, rhs)
    raise SemaError("array sizes must be integer constant expressions")


# -- AST template substitution ------------------------------------------------------


def _substitute_class(
    template: ast.ClassDecl, bindings: dict[str, Type], new_name: str
) -> ast.ClassDecl:
    clone = _deep_substitute(template, bindings)
    clone.name = new_name
    clone.template_params = []
    return clone


def _substitute_function(
    template: ast.FunctionDecl, bindings: dict[str, Type], new_name: str
) -> ast.FunctionDecl:
    clone = _deep_substitute(template, bindings)
    clone.name = new_name
    clone.template_params = []
    return clone


def _deep_substitute(node, bindings: dict[str, Type]):
    """Clone an AST subtree, rewriting TypeRefs that name template params."""
    if isinstance(node, ast.TypeRef):
        if node.name in bindings and not node.template_args:
            bound = bindings[node.name]
            ref = _type_to_ref(bound)
            ref.pointer_depth += node.pointer_depth
            ref.is_reference = node.is_reference
            ref.line = node.line
            return ref
        return ast.TypeRef(
            line=node.line,
            name=node.name,
            pointer_depth=node.pointer_depth,
            template_args=[_deep_substitute(a, bindings) for a in node.template_args],
            is_const=node.is_const,
            is_reference=node.is_reference,
        )
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        kwargs = {}
        for field_info in dataclasses.fields(node):
            value = getattr(node, field_info.name)
            kwargs[field_info.name] = _substitute_value(value, bindings)
        return type(node)(**kwargs)
    return node


def _substitute_value(value, bindings):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _deep_substitute(value, bindings)
    if isinstance(value, list):
        return [_substitute_value(v, bindings) for v in value]
    if isinstance(value, tuple):
        return tuple(_substitute_value(v, bindings) for v in value)
    return value


def _type_to_ref(type_: Type) -> ast.TypeRef:
    for name, prim in PRIMITIVES.items():
        if type_ == prim:
            return ast.TypeRef(name=name)
    if isinstance(type_, PointerType):
        inner = _type_to_ref(type_.pointee)
        inner.pointer_depth += 1
        return inner
    if isinstance(type_, StructType):
        return ast.TypeRef(name=type_.name.replace("__", "::"))
    raise SemaError(f"cannot spell type {type_} in source form")
