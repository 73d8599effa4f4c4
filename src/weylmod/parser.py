"""
Input language: ring and object declarations plus one check command.

    ring W(1) over QZ;
    module M = coker [[z*d1 - 1]];
    lattice L = M;
    complex C = [1, 1] with [[z]];
    check M holonomic-hat

Elements use x1..xn, d1..dn, z (in ring QZ), integers, + - * ^ and
division by scalar subexpressions; # starts a comment.  Every expression
is normal-ordered while parsing, so printing and reparsing an element is
the identity on normal forms.
"""

from fractions import Fraction

from .errors import (ParseError, RingMismatch, UndeclaredName,
                     UnsupportedAmbient, UnsupportedTarget)
from .weyl import QQ, QZ, WeylAlgebra

# The check line: subcommand -> (target kind, kind of its one argument).
# A "lattice" is a lattice or a module name and needs ring QZ, as does a
# lattice name for "module or lattice".  An argument is a signed "int", an
# "element" or a row, a "lattice" name checked as a target is, or None.
SUBCOMMANDS = {
    "gb": ("module", None),
    "nf": ("module", "element"),
    "dim": ("module", None),
    "grade": ("module", None),
    "holonomic": ("module", None),
    "ext": ("module", "int"),
    "charcycle": ("module", None),
    "dual": ("module", None),
    "reduce": ("lattice", None),
    "holonomic-hat": ("lattice", None),
    "good-lattice": ("lattice", None),
    "compare-lattices": ("lattice", "lattice"),
    "kunneth": ("lattice", "int"),
    "derham": ("module", None),
    "chi": ("module or lattice", None),
    "euler-check": ("complex", None),
}

# Check-line flags and the type of their value; a bool flag is a switch.
FLAGS = {"stats": bool, "max-degree": int, "zpower": int}

_PUNCT = "()[]{},;=+-*/^"


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(source):
    tokens = []
    line = 1
    col = 1
    i = 0
    size = len(source)
    while i < size:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and source[i] != "\n":
                i += 1
            continue
        if source.startswith("--", i):
            j = i + 2
            while j < size and (source[j].isalnum() or source[j] == "-"):
                j += 1
            # any other --name is two minus signs, as in d1--x1
            if source[i + 2:j] in FLAGS:
                tokens.append(Token("flag", source[i + 2:j], line, col))
                col += j - i
                i = j
                continue
        if ch.isdigit():
            j = i
            while j < size and source[j].isdigit():
                j += 1
            tokens.append(Token("int", int(source[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("end", None, line, col))
    return tokens


class Session:
    """Declarations plus at most one command, ready for dispatch."""

    __slots__ = ("n", "ring", "modules", "lattices", "complexes", "command")

    def __init__(self):
        self.n = None
        self.ring = None
        self.modules = {}
        self.lattices = {}
        self.complexes = {}
        self.command = None


class _Parser:
    MAX_DEPTH = 64

    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0
        self.session = Session()
        self.algebra = None
        self.depth = 0

    # --- token plumbing

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, ch):
        tok = self.next()
        if tok.kind != "punct" or tok.value != ch:
            self.fail("expected %r, found %r" % (ch, tok.value), tok)
        return tok

    def expect_name(self, value=None):
        tok = self.next()
        if tok.kind != "name":
            self.fail("expected a name, found %r" % (tok.value,), tok)
        if value is not None and tok.value != value:
            self.fail("expected %r, found %r" % (value, tok.value), tok)
        return tok

    def expect_int(self):
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected an integer, found %r" % (tok.value,), tok)
        return tok

    def at_punct(self, ch):
        tok = self.peek()
        return tok.kind == "punct" and tok.value == ch

    def eat_punct(self, ch):
        if self.at_punct(ch):
            self.next()
            return True
        return False

    # --- grammar

    def parse(self):
        while True:
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind != "name":
                self.fail("expected a declaration or check, found %r"
                          % (tok.value,), tok)
            if tok.value == "ring":
                self.ring_decl()
            elif tok.value == "module":
                self.module_decl()
            elif tok.value == "lattice":
                self.lattice_decl()
            elif tok.value == "complex":
                self.complex_decl()
            elif tok.value == "check":
                self.check_command()
            else:
                self.fail("unknown statement %r" % tok.value, tok)
        # after the whole input, so that a parse error anywhere wins
        for base, _gens in self.session.lattices.values():
            _check_kind(self.session, base, "module")
        if self.session.command is not None:
            _check_kinds(self.session)
        return self.session

    def ring_decl(self):
        self.expect_name("ring")
        if self.session.ring is not None:
            self.fail("ring already declared")
        self.expect_name("W")
        self.expect_punct("(")
        ntok = self.expect_int()
        if not 1 <= ntok.value <= 8:
            self.fail("number of variables must be between 1 and 8", ntok)
        self.expect_punct(")")
        self.expect_name("over")
        rtok = self.expect_name()
        if rtok.value not in ("QQ", "QZ"):
            self.fail("ring must be QQ or QZ", rtok)
        self.expect_punct(";")
        self.session.n = ntok.value
        self.session.ring = QQ if rtok.value == "QQ" else QZ
        self.algebra = WeylAlgebra(self.session.n, self.session.ring)

    def require_ring(self, tok):
        if self.session.ring is None:
            self.fail("ring declaration required first", tok)

    def fresh_name(self):
        tok = self.expect_name()
        s = self.session
        if tok.value in s.modules or tok.value in s.lattices \
                or tok.value in s.complexes:
            self.fail("name %r already declared" % tok.value, tok)
        if tok.value in ("ring", "module", "lattice", "complex", "check",
                         "coker", "over", "with", "z", "W"):
            self.fail("reserved word %r cannot name an object" % tok.value,
                      tok)
        if tok.value[0] in ("x", "d") and tok.value[1:].isdigit():
            self.fail("%r collides with a variable name" % tok.value, tok)
        return tok.value

    def module_decl(self):
        tok = self.expect_name("module")
        self.require_ring(tok)
        name = self.fresh_name()
        self.expect_punct("=")
        self.expect_name("coker")
        matrix = self.matrix()
        self.expect_punct(";")
        self.session.modules[name] = matrix

    def lattice_decl(self):
        tok = self.expect_name("lattice")
        self.require_ring(tok)
        name = self.fresh_name()
        self.expect_punct("=")
        base = self.declared_name("module")
        gens = None
        if self.peek().kind == "name" and self.peek().value == "with":
            self.next()
            gens = self.matrix()
        self.expect_punct(";")
        self.session.lattices[name] = (base, gens)

    def complex_decl(self):
        tok = self.expect_name("complex")
        self.require_ring(tok)
        name = self.fresh_name()
        self.expect_punct("=")
        self.expect_punct("[")
        ranks = []
        if not self.at_punct("]"):
            while True:
                ranks.append(self.expect_int().value)
                if not self.eat_punct(","):
                    break
        self.expect_punct("]")
        matrices = []
        if self.peek().kind == "name" and self.peek().value == "with":
            self.next()
            while self.at_punct("["):
                matrices.append(self.scalar_matrix())
        self.expect_punct(";")
        self.session.complexes[name] = (ranks, matrices)

    def check_command(self):
        tok = self.expect_name("check")
        self.require_ring(tok)
        if self.session.command is not None:
            self.fail("only one check per input", tok)
        target = self.declared_name()
        sub = self.subcommand_name()
        arg_kind = SUBCOMMANDS[sub][1]
        args = []
        flags = {}
        while True:
            tok = self.peek()
            if tok.kind == "end" or self.eat_punct(";"):
                break
            if tok.kind == "flag":
                self.next()
                flags[tok.value] = (self.expect_int().value
                                    if FLAGS[tok.value] is int else True)
            elif arg_kind is not None and not args:
                args.append(self.argument(arg_kind))
            else:
                self.fail("expected a flag or the end of the check, found "
                          "%r" % (tok.value,), tok)
        self.session.command = {"target": target, "subcommand": sub,
                                "args": args, "flags": flags}

    def declared_name(self, noun="object"):
        tok = self.expect_name()
        s = self.session
        if tok.value not in s.modules and tok.value not in s.lattices \
                and tok.value not in s.complexes:
            raise UndeclaredName("no %s named %r" % (noun, tok.value),
                                 tok.line, tok.col)
        return tok.value

    def subcommand_name(self):
        tok = self.expect_name()
        name = tok.value
        while self.at_punct("-"):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind != "name":
                break
            joined = name + "-" + nxt.value
            if not any(s == joined or s.startswith(joined + "-")
                       for s in SUBCOMMANDS):
                break
            self.next()
            self.next()
            name = joined
        if name not in SUBCOMMANDS:
            self.fail("unknown subcommand %r" % name, tok)
        return name

    def argument(self, kind):
        if kind == "int":
            sign = -1 if self.eat_punct("-") else 1
            return sign * self.expect_int().value
        if kind == "element":
            return self.row() if self.at_punct("[") else [self.element()]
        return self.declared_name()

    # --- matrices and elements

    def matrix(self):
        self.expect_punct("[")
        rows = []
        if not self.at_punct("]"):
            while True:
                rows.append(self.row())
                if not self.eat_punct(","):
                    break
        self.expect_punct("]")
        if len({len(row) for row in rows if row}) > 1:
            self.fail("ragged matrix rows")
        return rows

    def row(self):
        self.expect_punct("[")
        entries = []
        if not self.at_punct("]"):
            while True:
                entries.append(self.element())
                if not self.eat_punct(","):
                    break
        self.expect_punct("]")
        return entries

    def scalar_matrix(self):
        tok = self.peek()
        rows = self.matrix()
        out = []
        for row in rows:
            orow = []
            for w in row:
                if w.is_zero():
                    orow.append(Fraction(0))
                elif not _is_scalar(w):
                    self.fail("complex entries must be scalars", tok)
                else:
                    orow.append(_scalar_of(w))
            out.append(orow)
        return out

    def element(self):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self.fail("expression too deeply nested")
        try:
            u = self.term()
            while True:
                if self.at_punct("+"):
                    self.next()
                    u = u + self.term()
                elif self.at_punct("-"):
                    self.next()
                    u = u - self.term()
                else:
                    return u
        finally:
            self.depth -= 1

    def term(self):
        u = self.factor()
        while True:
            if self.at_punct("*"):
                self.next()
                u = u * self.factor()
            elif self.at_punct("/"):
                tok = self.next()
                v = self.factor()
                if v.is_zero():
                    self.fail("division by zero", tok)
                if not _is_scalar(v):
                    self.fail("division only by scalar subexpressions", tok)
                c = _scalar_of(v)
                u = u.scale(1 / c if isinstance(c, Fraction) else c.inv())
            else:
                return u

    def factor(self):
        # leading minus signs bind looser than ^, so -x1^2 is -(x1^2);
        # they are counted, not recursed on, so a long run cannot
        # overflow the stack
        signs = 0
        while self.at_punct("-"):
            self.next()
            signs += 1
        u = self.atom()
        while self.at_punct("^"):
            self.next()
            etok = self.expect_int()
            if etok.value > 64:
                self.fail("exponent too large", etok)
            u = u ** etok.value
        return u.scale(Fraction(-1)) if signs % 2 else u

    def atom(self):
        tok = self.next()
        W = self.algebra
        if tok.kind == "int":
            return W.scalar(Fraction(tok.value))
        if tok.kind == "punct" and tok.value == "(":
            u = self.element()
            self.expect_punct(")")
            return u
        if tok.kind == "name":
            if tok.value == "z":
                if self.session.ring != QZ:
                    raise RingMismatch("z needs ring QZ", tok.line, tok.col)
                return W.z()
            kind = tok.value[0]
            rest = tok.value[1:]
            if kind in ("x", "d") and rest.isdigit():
                i = int(rest)
                if not 1 <= i <= self.session.n:
                    self.fail("variable %s outside W(%d)"
                              % (tok.value, self.session.n), tok)
                return W.x(i) if kind == "x" else W.d(i)
        self.fail("expected an element, found %r" % (tok.value,), tok)


def _zero_key(w):
    zero = (0,) * w.n
    return (zero, zero, 0)


def _is_scalar(w):
    if not w.terms:
        return False
    return set(w.terms) == {_zero_key(w)}


def _scalar_of(w):
    return w.terms[_zero_key(w)]


def _check_kinds(s):
    sub = s.command["subcommand"]
    target_kind, arg_kind = SUBCOMMANDS[sub]
    args = s.command["args"]
    if arg_kind is not None and not args:
        raise UnsupportedTarget("%s needs %s" % (sub, {
            "int": "an integer argument", "element": "an element argument",
            "lattice": "a second lattice name"}[arg_kind]))
    _check_kind(s, s.command["target"], target_kind)
    if arg_kind == "lattice":
        _check_kind(s, args[0], "lattice")


def _check_kind(s, name, kind):
    if kind == "module or lattice":
        kind = "lattice" if s.ring == QZ or name in s.lattices else "module"
    if kind == "lattice":
        if s.ring != QZ:
            raise UnsupportedAmbient("lattice subcommands need the QZ ring")
        if name not in s.lattices and name not in s.modules:
            raise UnsupportedTarget("%r is not a module or a lattice" % name)
    elif name not in {"module": s.modules, "complex": s.complexes}[kind]:
        raise UnsupportedTarget("%r is not a %s" % (name, kind))


def parse(source):
    """Parse a full session; raises ParseError subclasses with positions.

    A check whose target or argument is of a kind the table does not take,
    or a lattice whose base is not a module, raises UnsupportedTarget, or
    UnsupportedAmbient for a lattice on QQ.
    """
    return _Parser(source).parse()
