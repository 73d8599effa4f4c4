"""
Input language: ring and object declarations plus one check command.

    ring W(1) over QZ;
    module M = coker [[z*d1 - 1]];
    lattice L = M;
    complex C = [1, 1] with [[z]];
    check M holonomic-hat

Elements use x1..xn, d1..dn, z (in ring QZ), integers, + - * ^ and
division by scalar subexpressions; # starts a comment.  Integers and
variable indices are ASCII digits; any other number character is a
ParseError.  Every expression is normal-ordered while parsing, so
printing and reparsing an element is the identity on normal forms.

An element is evaluated on packed rows of one _packed layout: the keys
come from Layout.enc, products from Layout.times, the one product loop,
and the WeylElement is built once, at the element's end.  Integers stay
ints (RatFuncs over QZ) until then.  An exponent that would leave the
fields of the layout raises _packed.Overflow, and _packed.widening
reruns the element from its first token on a layout twice as wide.
"""

import re
from fractions import Fraction
from unicodedata import category

from .errors import (ParseError, RingMismatch, UndeclaredName,
                     UnsupportedAmbient, UnsupportedTarget)
from ._linalg import add_terms
from ._packed import layout, widening
from .scalars import RatFunc
from .weyl import QQ, QZ, WeylElement

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

# One token pattern; the first alternative that matches is the token.  A
# flag is "--" and a FLAGS name not followed by a letter, digit or "-"
# (any other "--" is two minus signs, as in d1--x1).  Integers are ASCII
# digits; a name is a letter or "_", then letters, ASCII digits and "_".
# Blanks and comments are unnamed: they make no token.  The end token sits
# where the input ends, or where a comment running to the end starts: a
# comment never advances the column.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | [ \t\r]+ | (?P<end>(?=\#.*\Z)|\Z)
  | \#.* | --(?P<flag>%s)(?![^\W_]|-) | (?P<int>[0-9]+)
  | (?P<name>[^\W\d](?:[^\W\d]|[0-9])*) | (?P<punct>[%s]) | (?P<bad>.)
""" % ("|".join(map(re.escape, FLAGS)), re.escape(_PUNCT)), re.VERBOSE)

# An object name of this form is taken by a variable of the ring.
_VARIABLE = re.compile(r"(?P<letter>[xd])(?P<index>[0-9]+)")

_RESERVED = ("ring", "module", "lattice", "complex", "check", "coker",
             "over", "with", "z", "W")


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
    line, first = 1, 0  # first: the offset where the line starts
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            continue
        value, col = m[kind], m.start() - first + 1
        if kind == "name" and not value.isascii():
            # \w takes in numbers that are no decimal digit, such as the
            # superscript 2; re has no letter class to keep them out
            for k, ch in enumerate(value):
                if category(ch) in ("Nl", "No"):
                    kind, value, col = "bad", ch, col + k
                    break
        if kind == "newline":
            line, first = line + 1, m.end()
        elif kind == "bad":
            raise ParseError("unexpected character %r" % value, line, col)
        elif kind == "end":
            tokens.append(Token(kind, None, line, col))
            return tokens
        else:
            tokens.append(Token(kind, int(m["int"]) if kind == "int"
                                else value, line, col))


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
        # set by the ring declaration: the type of an integer coefficient
        # and the exponent tuple of no variable; per element: its layout
        # and the packed key of 1 there
        self.coefficient = None
        self.zero = None
        self.layout = None
        self.one = None
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

    def expect(self, kind, value=None):
        """The next token, which must be of this kind (and value)."""
        tok = self.next()
        if tok.kind != kind and kind != "punct":
            self.fail("expected %s, found %r" % (
                "a name" if kind == "name" else "an integer", tok.value), tok)
        if tok.kind != kind or value is not None and tok.value != value:
            self.fail("expected %r, found %r" % (value, tok.value), tok)
        return tok

    def at(self, value):
        # punctuation or a keyword; no token of another kind has its value
        return self.peek().value == value

    def eat(self, value):
        if self.at(value):
            self.next()
            return True
        return False

    # --- grammar

    def parse(self):
        statements = {"ring": self.ring_decl, "module": self.module_decl,
                      "lattice": self.lattice_decl,
                      "complex": self.complex_decl,
                      "check": self.check_command}
        while self.peek().kind != "end":
            tok = self.next()
            if tok.kind != "name":
                self.fail("expected a declaration or check, found %r"
                          % (tok.value,), tok)
            if tok.value not in statements:
                self.fail("unknown statement %r" % tok.value, tok)
            statements[tok.value](tok)
        # after the whole input, so that a parse error anywhere wins
        for base, _gens in self.session.lattices.values():
            _check_kind(self.session, base, "module")
        if self.session.command is not None:
            _check_kinds(self.session)
        return self.session

    def ring_decl(self, _tok):
        if self.session.ring is not None:
            self.fail("ring already declared")
        self.expect("name", "W")
        self.expect("punct", "(")
        ntok = self.expect("int")
        if not 1 <= ntok.value <= 8:
            self.fail("number of variables must be between 1 and 8", ntok)
        self.expect("punct", ")")
        self.expect("name", "over")
        rtok = self.expect("name")
        if rtok.value not in ("QQ", "QZ"):
            self.fail("ring must be QQ or QZ", rtok)
        self.expect("punct", ";")
        self.session.n = ntok.value
        self.session.ring = QQ if rtok.value == "QQ" else QZ
        self.coefficient = RatFunc if self.session.ring == QZ else int
        self.zero = (0,) * self.session.n

    def require_ring(self, tok):
        if self.session.ring is None:
            self.fail("ring declaration required first", tok)

    def declare(self, tok):
        """NAME = after the keyword tok of a declaration; returns NAME."""
        self.require_ring(tok)
        tok = self.expect("name")
        s = self.session
        if tok.value in s.modules or tok.value in s.lattices \
                or tok.value in s.complexes:
            self.fail("name %r already declared" % tok.value, tok)
        if tok.value in _RESERVED:
            self.fail("reserved word %r cannot name an object" % tok.value,
                      tok)
        if _VARIABLE.fullmatch(tok.value):
            self.fail("%r collides with a variable name" % tok.value, tok)
        self.expect("punct", "=")
        return tok.value

    def module_decl(self, tok):
        name = self.declare(tok)
        self.expect("name", "coker")
        matrix = self.matrix()
        self.expect("punct", ";")
        self.session.modules[name] = matrix

    def lattice_decl(self, tok):
        name = self.declare(tok)
        base = self.declared_name("module")
        gens = self.matrix() if self.eat("with") else None
        self.expect("punct", ";")
        self.session.lattices[name] = (base, gens)

    def complex_decl(self, tok):
        name = self.declare(tok)
        ranks = self.items(lambda: self.expect("int").value)
        matrices = []
        if self.eat("with"):
            while self.at("["):
                matrices.append(self.scalar_matrix())
        self.expect("punct", ";")
        self.session.complexes[name] = (ranks, matrices)

    def check_command(self, tok):
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
            if tok.kind == "end" or self.eat(";"):
                break
            if tok.kind == "flag":
                self.next()
                flags[tok.value] = (self.expect("int").value
                                    if FLAGS[tok.value] is int else True)
            elif arg_kind is not None and not args:
                args.append(self.argument(arg_kind))
            else:
                self.fail("expected a flag or the end of the check, found "
                          "%r" % (tok.value,), tok)
        self.session.command = {"target": target, "subcommand": sub,
                                "args": args, "flags": flags}

    def declared_name(self, noun="object"):
        tok = self.expect("name")
        s = self.session
        if tok.value not in s.modules and tok.value not in s.lattices \
                and tok.value not in s.complexes:
            raise UndeclaredName("no %s named %r" % (noun, tok.value),
                                 tok.line, tok.col)
        return tok.value

    def subcommand_name(self):
        tok = self.expect("name")
        name = tok.value
        while self.at("-"):
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
            sign = -1 if self.eat("-") else 1
            return sign * self.expect("int").value
        if kind == "element":
            return self.row() if self.at("[") else [self.element()]
        return self.declared_name()

    # --- lists, matrices and elements

    def items(self, item):
        """[item, item, ...], possibly empty."""
        self.expect("punct", "[")
        out = []
        if not self.at("]"):
            out.append(item())
            while self.eat(","):
                out.append(item())
        self.expect("punct", "]")
        return out

    def matrix(self):
        rows = self.items(self.row)
        if len({len(row) for row in rows if row}) > 1:
            self.fail("ragged matrix rows")
        return rows

    def row(self):
        return self.items(self.element)

    def scalar_matrix(self):
        tok = self.peek()
        one = (self.zero, self.zero, 0)
        rows = [[_scalar(w.terms, one) if w else Fraction(0) for w in row]
                for row in self.matrix()]
        if any(c is None for row in rows for c in row):
            self.fail("complex entries must be scalars", tok)
        return rows

    def element(self):
        """The next element, evaluated on packed rows of one layout.

        An exponent beyond the fields of the layout stops the evaluation
        with an Overflow; it reruns from the element's first token, with
        the depth counter as it was there, on a layout twice as wide.
        """
        start, depth, n = self.pos, self.depth, self.session.n

        def run(lay):
            self.pos, self.depth, self.layout = start, depth, lay
            self.one = lay.enc[(self.zero, self.zero, 0)]
            return lay.unpack(self.sum(), comps=False)

        return WeylElement(n, self.session.ring,
                           widening(run, layout(n, False)))

    def sum(self):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self.fail("expression too deeply nested")
        u = self.term()
        while True:
            if self.eat("+"):
                add_terms(u, self.term().items())
            elif self.eat("-"):
                add_terms(u, ((k, -c) for k, c in self.term().items()))
            else:
                self.depth -= 1
                return u

    def term(self):
        u = self.factor()
        while True:
            tok = self.peek()
            if self.eat("*"):
                u = self.layout.times(u, self.factor())
            elif self.eat("/"):
                v = self.factor()
                if not v:
                    self.fail("division by zero", tok)
                c = _scalar(v, self.one)
                if c is None:
                    self.fail("division only by scalar subexpressions", tok)
                c = c.inv() if self.session.ring == QZ else Fraction(1) / c
                u = {k: a * c for k, a in u.items()}
            else:
                return u

    def factor(self):
        # leading minus signs bind looser than ^, so -x1^2 is -(x1^2);
        # they are counted, not recursed on, so a long run cannot
        # overflow the stack
        signs = 0
        while self.eat("-"):
            signs += 1
        u = self.atom()
        while self.eat("^"):
            etok = self.expect("int")
            if etok.value > 64:
                self.fail("exponent too large", etok)
            u = self.power(u, etok.value)
        return {k: -c for k, c in u.items()} if signs % 2 else u

    def power(self, u, k):
        """u^k by repeated squaring."""
        out = self.scalar(1)
        while k:
            k, odd = divmod(k, 2)
            if odd:
                out = self.layout.times(out, u)
            if k:
                u = self.layout.times(u, u)
        return out

    def scalar(self, c):
        """The integer c as a packed row: over QZ a RatFunc, else an int."""
        return {self.one: self.coefficient(c)} if c else {}

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.scalar(tok.value)
        if tok.value == "(":
            u = self.sum()
            self.expect("punct", ")")
            return u
        if tok.value == "z":
            if self.session.ring != QZ:
                raise RingMismatch("z needs ring QZ", tok.line, tok.col)
            return {self.one: RatFunc.z()}
        var = tok.kind == "name" and _VARIABLE.fullmatch(tok.value)
        if var:
            n, i = self.session.n, int(var["index"])
            if not 1 <= i <= n:
                self.fail("variable %s outside W(%d)" % (tok.value, n), tok)
            unit = tuple(1 if j == i - 1 else 0 for j in range(n))
            key = (unit, self.zero, 0) if var["letter"] == "x" \
                else (self.zero, unit, 0)
            return {self.layout.enc[key]: self.coefficient(1)}
        self.fail("expected an element, found %r" % (tok.value,), tok)


def _scalar(terms, one):
    """The coefficient of terms when one, the key of 1, is its only key."""
    return terms[one] if len(terms) == 1 and one in terms else None


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
