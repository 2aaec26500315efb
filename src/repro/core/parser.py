"""Recursive-descent parser for IDL.

Grammar (statements are newline- or ``;``-separated)::

    statement   := '?' conjunction                    -- query / update request
                 | conjunction '<-' conjunction       -- rule (view definition)
                 | conjunction '->' [conjunction]     -- update program clause
    conjunction := expr { ',' expr }
    expr        := '~' expr                           -- negation
                 | '+' target | '-' target            -- update signs
                 | '.' attr expr                      -- tuple item (AttrStep)
                 | '(' [conjunction] ')'              -- set expression
                 | compare term                       -- atomic expression
                 | epsilon                            -- empty expression
    target      := '(' [conjunction] ')'              -- set plus/minus
                 | '.' attr expr                      -- tuple plus/minus
                 | '=' term                           -- atomic plus/minus
    attr        := IDENT | VAR | STRING
    term        := factor { ('+'|'-'|'*'|'/') factor }
    factor      := NUMBER | STRING | IDENT | VAR | '-' factor

plus the shorthand ``.a += t`` / ``.a -= t`` from Section 5.2 (the sign
read *after* the attribute applies to the atomic expression).

The parser is purely syntactic; semantic validation (safety, head
simplicity, stratification, binding signatures) happens in later passes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core import ast
from repro.core import lexer as lx
from repro.core.terms import Arith, Const, Var
from repro.errors import ParseError

#: Bound on the query memo of :func:`parse_program` (LRU); the other
#: text- and statement-keyed memos derive their bounds from it.
QUERY_MEMO_LIMIT = 1024

# Exact source text -> its one parsed Query, least recently used first.
_query_memo = OrderedDict()
_query_memo_lock = threading.Lock()

_FACTOR_STARTS = frozenset((lx.NUMBER, lx.STRING, lx.IDENT, lx.VAR, lx.MINUS))

# Tokens that may legally follow an (epsilon) expression.
_EXPR_FOLLOW = frozenset((lx.COMMA, lx.RPAREN, lx.SEP, lx.LARROW, lx.RARROW, lx.EOF))


class _TokenStream:
    """Cursor over the token list with positioned error reporting."""

    __slots__ = ("tokens", "index")

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self, offset=0):
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self):
        token = self.tokens[self.index]
        if token.type != lx.EOF:
            self.index += 1
        return token

    def expect(self, type_):
        token = self.peek()
        if token.type != type_:
            raise ParseError(
                f"expected {type_}, found {token.type} ({token.value!r})",
                token.line,
                token.column,
            )
        return self.next()

    def at(self, *types):
        return self.peek().type in types

    def error(self, message):
        token = self.peek()
        raise ParseError(message, token.line, token.column)


def parse_program(source):
    """Parse IDL source into a list of Statements.

    A source that parses to exactly one :class:`~repro.core.ast.Query`
    (a query or an update request) is memoized by its exact text in a
    process-wide LRU of :data:`QUERY_MEMO_LIMIT` entries, so a repeated
    query is tokenized and parsed once: every call returns a new
    one-element list holding the shared statement. AST nodes are never
    mutated after construction, so sharing them is safe, and it lets
    the evaluator's identity-keyed goal-order and probe-plan caches hit
    across queries. Rule and clause text always parses fresh (SCC keys
    use rule identity), and a source that fails to lex or parse is
    never memoized, so it raises the same :class:`ParseError` each
    time. The memo is safe under concurrent callers.
    """
    with _query_memo_lock:
        statement = _query_memo.get(source)
        if statement is not None:
            _query_memo.move_to_end(source)
            return [statement]
    statements = _parse_statements(source)
    if len(statements) == 1 and isinstance(statements[0], ast.Query):
        with _query_memo_lock:
            _query_memo[source] = statements[0]
            if len(_query_memo) > QUERY_MEMO_LIMIT:
                _query_memo.popitem(last=False)
    return statements


def _parse_statements(source):
    stream = _TokenStream(lx.tokenize(source))
    statements = []
    while not stream.at(lx.EOF):
        if stream.at(lx.SEP):
            stream.next()
            continue
        statements.append(_parse_statement(stream))
    return statements


def parse_query(source):
    """Parse a single query (the leading ``?`` is optional)."""
    statements = parse_program(source if source.lstrip().startswith("?") else "?" + source)
    if len(statements) != 1 or not isinstance(statements[0], ast.Query):
        raise ParseError("expected exactly one query")
    return statements[0]


def parse_expression(source):
    """Parse a bare conjunction (no statement marker) into a TupleExpr."""
    return parse_query(source).expr


def parse_rule(source):
    """Parse a single rule ``head <- body``."""
    statements = parse_program(source)
    if len(statements) != 1 or not isinstance(statements[0], ast.Rule):
        raise ParseError("expected exactly one rule")
    return statements[0]


def parse_update_clause(source):
    """Parse a single update program clause ``head -> body``."""
    statements = parse_program(source)
    if len(statements) != 1 or not isinstance(statements[0], ast.UpdateClause):
        raise ParseError("expected exactly one update program clause")
    return statements[0]


# ---------------------------------------------------------------------------
# Statement level
# ---------------------------------------------------------------------------


def _loc(token):
    return (token.line, token.column)


def _parse_statement(stream):
    start = stream.peek()
    if stream.at(lx.QUESTION):
        stream.next()
        expr = _parse_conjunction(stream)
        _end_statement(stream)
        return ast.Query(expr, loc=_loc(start))

    head = _parse_conjunction(stream)
    if stream.at(lx.LARROW):
        stream.next()
        body = _parse_conjunction(stream)
        _end_statement(stream)
        return ast.Rule(head, body, loc=_loc(start))
    if stream.at(lx.RARROW):
        stream.next()
        if stream.at(lx.SEP, lx.EOF):
            body = ast.TupleExpr([])
        else:
            body = _parse_conjunction(stream)
        _end_statement(stream)
        return ast.UpdateClause(head, body, loc=_loc(start))
    stream.error("expected '<-' or '->' after expression (or '?' before it)")


def _end_statement(stream):
    if stream.at(lx.SEP):
        stream.next()
    elif not stream.at(lx.EOF):
        stream.error("expected end of statement")


# ---------------------------------------------------------------------------
# Expression level
# ---------------------------------------------------------------------------


def _parse_conjunction(stream):
    conjuncts = [_parse_expr(stream, allow_epsilon=False)]
    while stream.at(lx.COMMA):
        stream.next()
        conjuncts.append(_parse_expr(stream, allow_epsilon=False))
    return ast.TupleExpr(conjuncts)


def _parse_expr(stream, allow_epsilon=True):
    token = stream.peek()

    if token.type == lx.NEG:
        stream.next()
        return ast.NegExpr(
            _parse_expr(stream, allow_epsilon=False), loc=_loc(token)
        )

    if token.type == lx.PLUS:
        stream.next()
        return _parse_signed_target(stream, ast.PLUS, start=token)

    if token.type == lx.MINUS:
        # ``-5 = X`` is a constraint with a negative literal, not a minus
        # update sign (which is always followed by '(', '.' or '=').
        if stream.peek(1).type == lx.NUMBER:
            left = _parse_term(stream)
            op_token = stream.expect(lx.COMPARE)
            right = _parse_term(stream)
            return ast.Constraint(left, op_token.value, right, loc=_loc(token))
        stream.next()
        return _parse_signed_target(stream, ast.MINUS, start=token)

    if token.type == lx.DOT:
        return _parse_attr_step(stream, sign=None)

    if token.type == lx.LPAREN:
        return _parse_set_expr(stream, sign=None)

    if token.type == lx.COMPARE:
        op = stream.next().value
        term = _parse_term(stream)
        return ast.AtomicExpr(op, term, loc=_loc(token))

    # Standalone constraint: ``X = ource``, ``S != date``, ``P > 2*Q``
    # (paper footnote 7). Recognized by a term followed by a comparison.
    if token.type in (lx.VAR, lx.NUMBER) or (
        token.type in (lx.IDENT, lx.STRING) and stream.peek(1).type == lx.COMPARE
    ):
        left = _parse_term(stream)
        op_token = stream.expect(lx.COMPARE)
        right = _parse_term(stream)
        return ast.Constraint(left, op_token.value, right, loc=_loc(token))

    if allow_epsilon and token.type in _EXPR_FOLLOW:
        return ast.Epsilon(loc=_loc(token))

    stream.error(f"unexpected {token.type} ({token.value!r}) in expression")


def _parse_signed_target(stream, sign, start=None):
    """Parse the target after a '+' or '-' update sign."""
    token = stream.peek()
    loc = _loc(start if start is not None else token)
    if token.type == lx.LPAREN:
        return _parse_set_expr(stream, sign=sign, start=start)
    if token.type == lx.DOT:
        return _parse_attr_step(stream, sign=sign, start=start)
    if token.type == lx.COMPARE and token.value == "=":
        stream.next()
        term = _parse_term(stream)
        return ast.AtomicExpr("=", term, sign=sign, loc=loc)
    stream.error(f"expected '(', '.' or '=' after update sign {sign!r}")


def _parse_attr_step(stream, sign, start=None):
    dot = stream.expect(lx.DOT)
    loc = _loc(start if start is not None else dot)
    attr = _parse_attr_name(stream)
    # Shorthand: ``.a += t`` / ``.a -= t`` (atomic update on the a-object).
    if stream.at(lx.PLUS, lx.MINUS) and stream.peek(1).type == lx.COMPARE and (
        stream.peek(1).value == "="
    ):
        sign_token = stream.next()
        inner_sign = ast.PLUS if sign_token.type == lx.PLUS else ast.MINUS
        stream.expect(lx.COMPARE)
        term = _parse_term(stream)
        atomic = ast.AtomicExpr("=", term, sign=inner_sign, loc=_loc(sign_token))
        return ast.AttrStep(attr, atomic, sign=sign, loc=loc)
    expr = _parse_expr(stream, allow_epsilon=True)
    return ast.AttrStep(attr, expr, sign=sign, loc=loc)


def _parse_attr_name(stream):
    token = stream.peek()
    if token.type == lx.IDENT or token.type == lx.STRING:
        stream.next()
        return Const(token.value)
    if token.type == lx.VAR:
        stream.next()
        return Var(token.value)
    stream.error("expected an attribute name or variable after '.'")


def _parse_set_expr(stream, sign, start=None):
    lparen = stream.expect(lx.LPAREN)
    loc = _loc(start if start is not None else lparen)
    if stream.at(lx.RPAREN):
        stream.next()
        return ast.SetExpr(ast.Epsilon(loc=loc), sign=sign, loc=loc)
    inner = _parse_conjunction(stream)
    stream.expect(lx.RPAREN)
    return ast.SetExpr(inner, sign=sign, loc=loc)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _parse_term(stream):
    term = _parse_factor(stream)
    while stream.at(lx.PLUS, lx.MINUS, lx.STAR, lx.SLASH):
        # Only continue as arithmetic when an operand follows; ``, +.a``
        # style continuations belong to the surrounding conjunction.
        if stream.peek(1).type not in _FACTOR_STARTS:
            break
        op_token = stream.next()
        op = {lx.PLUS: "+", lx.MINUS: "-", lx.STAR: "*", lx.SLASH: "/"}[op_token.type]
        right = _parse_factor(stream)
        term = Arith(op, term, right)
    return term


def _parse_factor(stream):
    token = stream.peek()
    if token.type == lx.NUMBER:
        stream.next()
        return Const(token.value)
    if token.type == lx.STRING or token.type == lx.IDENT:
        stream.next()
        return Const(token.value)
    if token.type == lx.VAR:
        stream.next()
        return Var(token.value)
    if token.type == lx.MINUS:
        stream.next()
        inner = _parse_factor(stream)
        if isinstance(inner, Const) and isinstance(inner.value, (int, float)):
            return Const(-inner.value)
        return Arith("-", Const(0), inner)
    stream.error("expected a constant, variable or number")
