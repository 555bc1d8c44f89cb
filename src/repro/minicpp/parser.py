"""Recursive-descent parser for MiniC++.

Produces a :class:`~repro.minicpp.ast.TranslationUnit`.  Supported at the
declaration level: namespaces (flattened into qualified names), class and
struct definitions (fields, methods, constructors, virtual functions,
multiple inheritance, operator overloads), class and function templates
(stored generically, instantiated during semantic analysis), free
functions, and global variables.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import Token, tokenize

PRIMITIVE_TYPES = frozenset(
    "void bool char short int long float double unsigned signed".split()
)

_ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>=".split())


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}:{token.column}: {message} (at {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.namespace: tuple[str, ...] = ()
        self.known_classes: set[str] = set()
        self.template_param_stack: list[set[str]] = []

    # -- token helpers ---------------------------------------------------------
    #
    # ``pos`` never passes the 'eof' token, so ``tokens[pos]`` is always
    # there; the expression and statement parsers read it directly.

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind == kind and (text is None or token.text == text):
            if kind != "eof":
                self.pos += 1
            return token
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.tokens[self.pos]
        if token.kind != kind or (text is not None and token.text != text):
            raise ParseError(f"expected {(text or kind)!r}", token)
        if kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current)

    # -- entry point -------------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(line=1)
        self._parse_declarations(unit)
        self.expect("eof")
        return unit

    def _parse_declarations(self, unit: ast.TranslationUnit) -> None:
        while not self.check("eof") and not self.check("op", "}"):
            self._parse_top_level(unit)

    def _parse_top_level(self, unit: ast.TranslationUnit) -> None:
        if self.accept("keyword", "namespace"):
            name = self.expect("ident").text
            self.expect("op", "{")
            outer = self.namespace
            self.namespace = outer + (name,)
            self._parse_declarations(unit)
            self.expect("op", "}")
            self.accept("op", ";")
            self.namespace = outer
            return
        if self.accept("keyword", "using"):
            # "using namespace X;" — accepted and ignored (name resolution
            # already searches enclosing namespaces).
            while not self.accept("op", ";"):
                self.advance()
            return

        template_params: list[str] = []
        if self.check("keyword", "template"):
            template_params = self._parse_template_header()

        if self.check("keyword", "class") or self.check("keyword", "struct"):
            # Distinguish a definition from a forward declaration.
            if self.peek().kind == "ident" and self.peek(2).text == ";":
                self.advance()
                name = self.advance().text
                self.advance()  # ;
                self.known_classes.add(name)
                return
            cls = self._parse_class(template_params)
            unit.classes.append(cls)
            return

        if template_params:
            self.template_param_stack.append(set(template_params))
            try:
                fn = self._parse_function_or_global(unit, template_params)
            finally:
                self.template_param_stack.pop()
            return

        self._parse_function_or_global(unit, [])

    def _parse_template_header(self) -> list[str]:
        self.expect("keyword", "template")
        self.expect("op", "<")
        params = []
        while True:
            if not (
                self.accept("keyword", "typename") or self.accept("keyword", "class")
            ):
                raise self.error("expected 'typename' or 'class' in template header")
            params.append(self.expect("ident").text)
            if not self.accept("op", ","):
                break
        self.expect("op", ">")
        return params

    # -- classes ---------------------------------------------------------------

    def _parse_class(self, template_params: list[str]) -> ast.ClassDecl:
        line = self.current.line
        is_struct = self.current.text == "struct"
        self.advance()  # class/struct
        name = self.expect("ident").text
        self.known_classes.add(name)
        cls = ast.ClassDecl(
            line=line,
            name=name,
            template_params=template_params,
            namespace=self.namespace,
            is_struct=is_struct,
        )
        if template_params:
            self.template_param_stack.append(set(template_params))
        try:
            if self.accept("op", ":"):
                while True:
                    access = "public" if is_struct else "private"
                    for keyword in ("public", "private", "protected"):
                        if self.accept("keyword", keyword):
                            access = keyword
                            break
                    base_name = self.expect("ident").text
                    targs: list[ast.TypeRef] = []
                    if self.check("op", "<"):
                        targs = self._parse_template_args()
                    cls.bases.append(
                        ast.BaseSpec(
                            line=line, name=base_name, access=access, template_args=targs
                        )
                    )
                    if not self.accept("op", ","):
                        break
            self.expect("op", "{")
            while not self.check("op", "}"):
                self._parse_member(cls)
            self.expect("op", "}")
            self.expect("op", ";")
        finally:
            if template_params:
                self.template_param_stack.pop()
        return cls

    def _parse_member(self, cls: ast.ClassDecl) -> None:
        for keyword in ("public", "private", "protected"):
            if self.accept("keyword", keyword):
                self.expect("op", ":")
                return
        line = self.current.line
        is_virtual = bool(self.accept("keyword", "virtual"))
        is_static = bool(self.accept("keyword", "static"))

        # Constructor: ClassName ( ... )
        if (
            self.check("ident", cls.name)
            and self.peek().text == "("
        ):
            self.advance()
            ctor = ast.ConstructorDecl(line=line)
            ctor.params = self._parse_params()
            if self.accept("op", ":"):
                while True:
                    member = self.expect("ident").text
                    self.expect("op", "(")
                    args = []
                    if not self.check("op", ")"):
                        args.append(self._parse_expression())
                        while self.accept("op", ","):
                            args.append(self._parse_expression())
                    self.expect("op", ")")
                    ctor.initializers.append((member, args))
                    if not self.accept("op", ","):
                        break
            ctor.body = self._parse_block()
            cls.constructors.append(ctor)
            return

        # Destructor: ~ClassName() {...} — parsed and discarded (trivial
        # destructors only; the model has no device-side delete).
        if self.check("op", "~"):
            self.advance()
            self.expect("ident")
            self.expect("op", "(")
            self.expect("op", ")")
            if self.check("op", "{"):
                self._parse_block()
            else:
                self.expect("op", ";")
            return

        type_ref = self._parse_type()

        # operator overload method
        if self.accept("keyword", "operator"):
            op_name = self._parse_operator_name()
            method = ast.FunctionDecl(
                line=line,
                name=op_name,
                return_type=type_ref,
                is_virtual=is_virtual,
                is_static=is_static,
            )
            method.params = self._parse_params()
            method.is_const = bool(self.accept("keyword", "const"))
            if self.check("op", "{"):
                method.body = self._parse_block()
            else:
                self.expect("op", ";")
            cls.methods.append(method)
            return

        name = self.expect("ident").text
        if self.check("op", "("):
            method = ast.FunctionDecl(
                line=line,
                name=name,
                return_type=type_ref,
                is_virtual=is_virtual,
                is_static=is_static,
            )
            method.params = self._parse_params()
            method.is_const = bool(self.accept("keyword", "const"))
            if self.accept("op", "="):
                # pure virtual: "= 0;" — treated as virtual with no body
                self.expect("int")
                self.expect("op", ";")
                cls.methods.append(method)
                return
            if self.check("op", "{"):
                method.body = self._parse_block()
            else:
                self.expect("op", ";")
            cls.methods.append(method)
            return

        # field (possibly several declarators, possibly array)
        while True:
            array_size = None
            if self.accept("op", "["):
                array_size = self._parse_expression()
                self.expect("op", "]")
            cls.fields.append(
                ast.FieldDecl(line=line, type=type_ref, name=name, array_size=array_size)
            )
            if self.accept("op", ","):
                extra_ptr = 0
                while self.accept("op", "*"):
                    extra_ptr += 1
                base = ast.TypeRef(
                    line=line,
                    name=type_ref.name,
                    pointer_depth=extra_ptr,
                    template_args=list(type_ref.template_args),
                )
                type_ref = base
                name = self.expect("ident").text
                continue
            break
        self.expect("op", ";")

    def _parse_operator_name(self) -> str:
        if self.accept("op", "("):
            self.expect("op", ")")
            return "operator()"
        if self.accept("op", "["):
            self.expect("op", "]")
            return "operator[]"
        token = self.current
        if token.kind == "op" and token.text in (
            "+", "-", "*", "/", "%", "==", "!=", "<", ">", "<=", ">=",
            "+=", "-=", "*=", "/=", "=",
        ):
            self.advance()
            return f"operator{token.text}"
        raise self.error("unsupported operator overload")

    # -- functions / globals -------------------------------------------------------

    def _parse_function_or_global(self, unit: ast.TranslationUnit, template_params):
        line = self.current.line
        type_ref = self._parse_type()
        # Out-of-line method definition: Type Class::name(...) {...}
        name = self.expect("ident").text
        owner_class = None
        if self.accept("op", "::"):
            owner_class = name
            name = self.expect("ident").text
        if self.check("op", "("):
            fn = ast.FunctionDecl(
                line=line,
                name=name,
                return_type=type_ref,
                template_params=template_params,
                namespace=self.namespace,
                owner_class=owner_class,
            )
            fn.params = self._parse_params()
            if self.check("op", "{"):
                fn.body = self._parse_block()
            else:
                self.expect("op", ";")
            unit.functions.append(fn)
            return fn
        init = None
        if self.accept("op", "="):
            init = self._parse_expression()
        self.expect("op", ";")
        unit.globals.append(
            ast.GlobalVarDecl(
                line=line, type=type_ref, name=name, init=init, namespace=self.namespace
            )
        )
        return None

    def _parse_params(self) -> list[ast.Param]:
        self.expect("op", "(")
        params: list[ast.Param] = []
        if self.accept("op", ")"):
            return params
        if self.check("keyword", "void") and self.peek().text == ")":
            self.advance()
            self.expect("op", ")")
            return params
        while True:
            line = self.current.line
            type_ref = self._parse_type()
            name = ""
            if self.check("ident"):
                name = self.advance().text
            params.append(ast.Param(line=line, type=type_ref, name=name or f"p{len(params)}"))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        return params

    # -- types -----------------------------------------------------------------

    def _looks_like_type(self) -> bool:
        token = self.current
        if token.kind == "keyword":
            if token.text in PRIMITIVE_TYPES or token.text == "const":
                return True
            return False
        if token.kind != "ident":
            return False
        if token.text in self.known_classes:
            return True
        return any(token.text in scope for scope in self.template_param_stack)

    def _parse_type(self) -> ast.TypeRef:
        line = self.current.line
        is_const = bool(self.accept("keyword", "const"))
        words = []
        while self.current.kind == "keyword" and self.current.text in PRIMITIVE_TYPES:
            words.append(self.advance().text)
        template_args: list[ast.TypeRef] = []
        if not words:
            name = self.expect("ident").text
            if self.check("op", "<") and self._template_args_ahead():
                template_args = self._parse_template_args()
        else:
            name = " ".join(words)
        is_const = is_const or bool(self.accept("keyword", "const"))
        ref = ast.TypeRef(
            line=line,
            name=_normalize_primitive(name),
            template_args=template_args,
            is_const=is_const,
        )
        while True:
            if self.accept("op", "*"):
                ref.pointer_depth += 1
                self.accept("keyword", "const")
            elif self.accept("op", "&"):
                ref.is_reference = True
            else:
                break
        return ref

    def _template_args_ahead(self) -> bool:
        """Heuristic: '<' opens template args if a matching '>' appears
        before any ';', '{', or '&&'/'||' at depth 0."""
        depth = 0
        index = self.pos
        limit = min(len(self.tokens), index + 64)
        while index < limit:
            text = self.tokens[index].text
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
                if depth == 0:
                    return True
            elif text == ">>":
                depth -= 2
                if depth <= 0:
                    return True
            elif text in (";", "{", "&&", "||", ")"):
                return False
            index += 1
        return False

    def _parse_template_args(self) -> list[ast.TypeRef]:
        self.expect("op", "<")
        args = [self._parse_type()]
        while self.accept("op", ","):
            args.append(self._parse_type())
        # allow '>>' to close two levels
        if self.check("op", ">>"):
            token = self.current
            self.tokens[self.pos] = Token("op", ">", token.line, token.column)
            return args
        self.expect("op", ">")
        return args

    # -- statements ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        line = self.current.line
        col = self.current.column
        self.expect("op", "{")
        block = ast.Block(line=line, col=col)
        while not self.check("op", "}"):
            block.statements.append(self._parse_statement())
        self.expect("op", "}")
        return block

    def _parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        line = token.line
        col = token.column
        if token.kind == "op" and token.text == "{":
            return self._parse_block()
        if token.kind != "keyword":
            return self._parse_simple_statement()
        keyword = token.text
        if keyword == "if":
            self.pos += 1
            self.expect("op", "(")
            cond = self._parse_expression()
            self.expect("op", ")")
            then = self._parse_statement()
            otherwise = None
            if self.accept("keyword", "else"):
                otherwise = self._parse_statement()
            return ast.If(line=line, col=col, cond=cond, then=then, otherwise=otherwise)
        if keyword == "while":
            self.pos += 1
            self.expect("op", "(")
            cond = self._parse_expression()
            self.expect("op", ")")
            body = self._parse_statement()
            return ast.While(line=line, col=col, cond=cond, body=body)
        if keyword == "do":
            self.pos += 1
            body = self._parse_statement()
            self.expect("keyword", "while")
            self.expect("op", "(")
            cond = self._parse_expression()
            self.expect("op", ")")
            self.expect("op", ";")
            return ast.DoWhile(line=line, col=col, body=body, cond=cond)
        if keyword == "for":
            self.pos += 1
            self.expect("op", "(")
            init: Optional[ast.Stmt] = None
            if not self.check("op", ";"):
                init = self._parse_simple_statement()
            else:
                self.advance()
            cond = None
            if not self.check("op", ";"):
                cond = self._parse_expression()
            self.expect("op", ";")
            step = None
            if not self.check("op", ")"):
                step = self._parse_expression()
            self.expect("op", ")")
            body = self._parse_statement()
            return ast.For(line=line, col=col, init=init, cond=cond, step=step, body=body)
        if keyword == "return":
            self.pos += 1
            value = None
            if not self.check("op", ";"):
                value = self._parse_expression()
            self.expect("op", ";")
            return ast.Return(line=line, col=col, value=value)
        if keyword == "break":
            self.pos += 1
            self.expect("op", ";")
            return ast.Break(line=line, col=col)
        if keyword == "continue":
            self.pos += 1
            self.expect("op", ";")
            return ast.Continue(line=line, col=col)
        return self._parse_simple_statement()

    def _parse_simple_statement(self) -> ast.Stmt:
        """A declaration or expression statement, consuming the ';'."""
        line = self.current.line
        col = self.current.column
        if self._declaration_ahead():
            type_ref = self._parse_type()
            name = self.expect("ident").text
            array_size = None
            init = None
            ctor_args = None
            if self.accept("op", "["):
                array_size = self._parse_expression()
                self.expect("op", "]")
            elif self.accept("op", "="):
                init = self._parse_expression()
            elif self.accept("op", "("):
                ctor_args = []
                if not self.check("op", ")"):
                    ctor_args.append(self._parse_expression())
                    while self.accept("op", ","):
                        ctor_args.append(self._parse_expression())
                self.expect("op", ")")
            self.expect("op", ";")
            return ast.VarDecl(
                line=line,
                col=col,
                type=type_ref,
                name=name,
                init=init,
                array_size=array_size,
                ctor_args=ctor_args,
            )
        expr = self._parse_expression()
        self.expect("op", ";")
        return ast.ExprStmt(line=line, col=col, expr=expr)

    def _declaration_ahead(self) -> bool:
        if not self._looks_like_type():
            return False
        # Distinguish "T x" / "T* x" / "T<...>* x" from expressions like
        # "a * b" where a names a class: scan past type syntax for ident.
        index = self.pos
        if self.tokens[index].text == "const":
            index += 1
        if self.tokens[index].kind == "keyword":
            while (
                index < len(self.tokens)
                and self.tokens[index].kind == "keyword"
                and self.tokens[index].text in PRIMITIVE_TYPES
            ):
                index += 1
        else:
            index += 1
            if index < len(self.tokens) and self.tokens[index].text == "<":
                depth = 0
                while index < len(self.tokens):
                    text = self.tokens[index].text
                    if text == "<":
                        depth += 1
                    elif text == ">":
                        depth -= 1
                        if depth == 0:
                            index += 1
                            break
                    elif text == ">>":
                        depth -= 2
                        if depth <= 0:
                            index += 1
                            break
                    elif text in (";", "{"):
                        return False
                    index += 1
        while index < len(self.tokens) and self.tokens[index].text in ("*", "&", "const"):
            index += 1
        return index < len(self.tokens) and self.tokens[index].kind == "ident"

    # -- expressions (precedence climbing) ----------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_after_binary(self._parse_binary(0))

    def _parse_after_binary(self, target: ast.Expr) -> ast.Expr:
        """What may follow the operator chain ``target`` in a full
        expression: ``? then : otherwise``, then an assignment."""
        token = self.tokens[self.pos]
        if token.kind != "op":
            return target
        if token.text == "?":
            target = self._parse_conditional_tail(target)
            token = self.tokens[self.pos]
        if token.kind == "op" and token.text in _ASSIGN_OPS:
            self.pos += 1
            value = self._parse_expression()
            return ast.Assign(line=token.line, col=token.column, op=token.text, target=target, value=value)
        return target

    def _parse_conditional(self) -> ast.Expr:
        """An expression that stops before an assignment operator."""
        cond = self._parse_binary(0)
        if self.tokens[self.pos].text == "?":
            return self._parse_conditional_tail(cond)
        return cond

    def _parse_conditional_tail(self, cond: ast.Expr) -> ast.Expr:
        """``? then : otherwise`` after ``cond``; the '?' is current."""
        token = self.tokens[self.pos]
        self.pos += 1
        then = self._parse_expression()
        self.expect("op", ":")
        otherwise = self._parse_conditional()
        return ast.Conditional(
            line=token.line, col=token.column, cond=cond, then=then, otherwise=otherwise
        )

    #: How tightly each binary operator binds; all are left-associative.
    _BINDING_POWER = {
        "||": 0,
        "&&": 1,
        "|": 2,
        "^": 3,
        "&": 4,
        "==": 5, "!=": 5,
        "<": 6, ">": 6, "<=": 6, ">=": 6,
        "<<": 7, ">>": 7,
        "+": 8, "-": 8,
        "*": 9, "/": 9, "%": 9,
    }

    def _parse_binary(self, min_power: int) -> ast.Expr:
        """An operand, then every operator binding at least ``min_power``:
        each takes what binds tighter as its right side and becomes the
        left side of the next, so a chain costs one frame, not one per
        operator."""
        lhs = self._parse_unary()
        tokens = self.tokens
        power_of = self._BINDING_POWER
        while True:
            token = tokens[self.pos]
            power = power_of.get(token.text, -1)  # only an 'op' token has an operator's text
            if power < min_power:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(power + 1)
            lhs = ast.Binary(line=token.line, col=token.column, op=token.text, lhs=lhs, rhs=rhs)

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind == "op":
            text = token.text
            if text in ("-", "!", "~", "*", "&"):
                self.pos += 1
                operand = self._parse_unary()
                return ast.Unary(line=token.line, col=token.column, op=text, operand=operand)
            if text in ("++", "--"):
                self.pos += 1
                operand = self._parse_unary()
                return ast.Unary(line=token.line, col=token.column, op=text + "pre", operand=operand)
            if text == "(":
                # Cast or parenthesized expression.
                save = self.pos
                self.pos += 1
                if self._looks_like_type():
                    try:
                        type_ref = self._parse_type()
                        if self.check("op", ")") and type_ref.pointer_depth > 0 or (
                            self.check("op", ")")
                            and type_ref.name
                            in ("int", "uint", "long", "ulong", "float", "double", "char",
                                "bool", "short", "uchar", "ushort")
                        ):
                            self.expect("op", ")")
                            operand = self._parse_unary()
                            return ast.Cast(line=token.line, col=token.column, type=type_ref, operand=operand)
                    except ParseError:
                        pass
                # Parentheses nest two frames a level (binary, unary): the
                # depth accepted is the recursion limit over that.
                self.pos = save + 1
                expr = self._parse_binary(0)
                if self.tokens[self.pos].text != ")":
                    expr = self._parse_after_binary(expr)
                self.expect("op", ")")
                return self._parse_postfix(expr)
        elif token.kind == "keyword":
            text = token.text
            if text == "new":
                self.pos += 1
                type_ref = self._parse_type()
                array_size = None
                ctor_args: list[ast.Expr] = []
                if self.accept("op", "["):
                    array_size = self._parse_expression()
                    self.expect("op", "]")
                elif self.accept("op", "("):
                    if not self.check("op", ")"):
                        ctor_args.append(self._parse_expression())
                        while self.accept("op", ","):
                            ctor_args.append(self._parse_expression())
                    self.expect("op", ")")
                return ast.NewExpr(
                    line=token.line, col=token.column, type=type_ref, array_size=array_size, ctor_args=ctor_args
                )
            if text == "delete":
                self.pos += 1
                is_array = False
                if self.accept("op", "["):
                    self.expect("op", "]")
                    is_array = True
                operand = self._parse_unary()
                return ast.DeleteExpr(line=token.line, col=token.column, operand=operand, is_array=is_array)
            if text == "sizeof":
                self.pos += 1
                self.expect("op", "(")
                type_ref = self._parse_type()
                self.expect("op", ")")
                return ast.SizeofExpr(line=token.line, col=token.column, type=type_ref)
            if text == "static_cast":
                self.pos += 1
                self.expect("op", "<")
                type_ref = self._parse_type()
                self.expect("op", ">")
                self.expect("op", "(")
                operand = self._parse_expression()
                self.expect("op", ")")
                return ast.Cast(line=token.line, col=token.column, type=type_ref, operand=operand)
        return self._parse_postfix(self._parse_primary())

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        """``expr`` with the member accesses, subscripts, calls and
        post-increments that follow it."""
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind != "op":
                return expr
            text = token.text
            if text == "." or text == "->":
                self.pos += 1
                member = self._member_name()
                if self.check("op", "("):
                    args = self._parse_call_args()
                    expr = ast.MethodCall(
                        line=token.line, col=token.column, receiver=expr, method=member, args=args,
                        arrow=text == "->",
                    )
                else:
                    expr = ast.Member(
                        line=token.line, col=token.column, receiver=expr, member=member, arrow=text == "->"
                    )
            elif text == "[":
                self.pos += 1
                index = self._parse_expression()
                self.expect("op", "]")
                expr = ast.Index(line=token.line, col=token.column, base=expr, index=index)
            elif text == "(":
                args = self._parse_call_args()
                if isinstance(expr, ast.Name):
                    expr = ast.Call(line=token.line, col=token.column, name=expr, args=args)
                else:
                    expr = ast.CallOperator(line=token.line, col=token.column, receiver=expr, args=args)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = ast.Unary(line=token.line, col=token.column, op="post" + text, operand=expr)
            else:
                return expr

    def _member_name(self) -> str:
        if self.accept("keyword", "operator"):
            return self._parse_operator_name()
        return self.expect("ident").text

    def _parse_call_args(self) -> list[ast.Expr]:
        self.expect("op", "(")
        args: list[ast.Expr] = []
        if not self.check("op", ")"):
            args.append(self._parse_expression())
            while self.accept("op", ","):
                args.append(self._parse_expression())
        self.expect("op", ")")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == "ident":
            self.pos += 1
            parts = [token.text]
            while self.check("op", "::"):
                self.pos += 1
                parts.append(self.expect("ident").text)
            if parts == ["NULL"] or parts == ["nullptr"]:
                return ast.NullLiteral(line=token.line, col=token.column)
            return ast.Name(line=token.line, col=token.column, parts=parts)
        if kind == "int":
            self.pos += 1
            return ast.IntLiteral(line=token.line, col=token.column, value=token.value)
        if kind == "float":
            self.pos += 1
            return ast.FloatLiteral(
                line=token.line, col=token.column, value=token.value, is_double=not token.text.endswith("f")
            )
        if kind == "char":
            self.pos += 1
            return ast.CharLiteral(line=token.line, col=token.column, value=token.value)
        if kind == "keyword" and token.text in ("true", "false"):
            self.pos += 1
            return ast.BoolLiteral(line=token.line, col=token.column, value=token.text == "true")
        if kind == "keyword" and token.text == "this":
            self.pos += 1
            return ast.ThisExpr(line=token.line, col=token.column)
        raise self.error("expected expression")


def _normalize_primitive(name: str) -> str:
    mapping = {
        "unsigned": "uint",
        "unsigned int": "uint",
        "unsigned long": "ulong",
        "unsigned long long": "ulong",
        "unsigned char": "uchar",
        "unsigned short": "ushort",
        "signed": "int",
        "signed int": "int",
        "long long": "long",
        "signed char": "char",
        "long int": "long",
    }
    return mapping.get(name, name)


def parse(source: str) -> ast.TranslationUnit:
    return Parser(source).parse()
