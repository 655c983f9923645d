"""Tokenizer shared by the program parser and the error-model parser.

Program mode is indentation-sensitive (4-space indents, LF newlines) and
emits NEWLINE/INDENT/DEDENT tokens.  Rule mode is line-oriented and adds the
template-only operators (braces, ``?``, ``~``, ``->`` and the prime mark).
"""

from __future__ import annotations

from .lang import Span

KEYWORDS = {
    "def",
    "return",
    "if",
    "else",
    "while",
    "for",
    "in",
    "pass",
    "and",
    "or",
    "not",
    "True",
    "False",
}

# longest-match first
OPERATORS = [
    "**",
    "==",
    "!=",
    "<=",
    ">=",
    "+=",
    "-=",
    "*=",
    "/=",
    "->",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    ".",
    ";",
    "?",
    "~",
    "'",
]


class SourceError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "value", "span")

    def __init__(self, kind: str, value: str, span: Span):
        self.kind = kind  # NAME, INT, STRING, OP, KEYWORD, NEWLINE, INDENT, DEDENT, EOF
        self.value = value
        self.span = span


def tokenize(source: str, rule_mode: bool = False) -> list:
    """Tokenize `source`.  In program mode, indentation must be a multiple
    of four spaces; tabs are rejected."""
    tokens = []
    indent_stack = [0]
    pos = 0
    line_no = 0
    lines = source.split("\n")
    offset = 0

    for line_no, raw in enumerate(lines, start=1):
        line_start = offset
        offset += len(raw) + 1  # newline
        # strip comments
        code = raw
        hash_at = _comment_start(code)
        if hash_at is not None:
            code = code[:hash_at]
        if not code.strip():
            continue  # blank or comment-only line

        indent = len(code) - len(code.lstrip(" "))
        if "\t" in code[:indent]:
            raise SourceError("tabs are not allowed in indentation", line_no, 1)
        if not rule_mode:
            if indent % 4 != 0:
                raise SourceError(
                    "indentation must be a multiple of 4 spaces", line_no, 1
                )
            level = indent // 4
            while level > indent_stack[-1]:
                indent_stack.append(indent_stack[-1] + 1)
                tokens.append(
                    Token("INDENT", "", Span(line_no, 1, line_start, line_start))
                )
            while level < indent_stack[-1]:
                indent_stack.pop()
                tokens.append(
                    Token("DEDENT", "", Span(line_no, 1, line_start, line_start))
                )
            if level != indent_stack[-1]:
                raise SourceError("inconsistent indentation", line_no, 1)

        pos = indent
        while pos < len(code):
            ch = code[pos]
            if ch == " ":
                pos += 1
                continue
            col = pos + 1
            start = line_start + pos
            if ch.isdigit():
                end = pos
                while end < len(code) and code[end].isdigit():
                    end += 1
                tokens.append(
                    Token(
                        "INT",
                        code[pos:end],
                        Span(line_no, col, start, line_start + end),
                    )
                )
                pos = end
                continue
            if ch.isalpha() or ch == "_":
                end = pos
                while end < len(code) and (code[end].isalnum() or code[end] == "_"):
                    end += 1
                word = code[pos:end]
                kind = "KEYWORD" if word in KEYWORDS else "NAME"
                tokens.append(
                    Token(kind, word, Span(line_no, col, start, line_start + end))
                )
                pos = end
                continue
            if ch == '"' and rule_mode:
                end = pos + 1
                buf = []
                while end < len(code) and code[end] != '"':
                    if code[end] == "\\" and end + 1 < len(code):
                        buf.append(code[end + 1])
                        end += 2
                    else:
                        buf.append(code[end])
                        end += 1
                if end >= len(code):
                    raise SourceError("unterminated string", line_no, col)
                tokens.append(
                    Token(
                        "STRING",
                        "".join(buf),
                        Span(line_no, col, start, line_start + end + 1),
                    )
                )
                pos = end + 1
                continue
            for op in OPERATORS:
                if code.startswith(op, pos):
                    if op in ("?", "~", "{", "}", "'", "->", ";") and not rule_mode:
                        raise SourceError(f"unexpected character {op!r}", line_no, col)
                    tokens.append(
                        Token(
                            "OP",
                            op,
                            Span(line_no, col, start, line_start + len(op) + pos),
                        )
                    )
                    pos += len(op)
                    break
            else:
                raise SourceError(f"unexpected character {ch!r}", line_no, col)

        end_span = Span(line_no, len(code) + 1, line_start + len(code), line_start + len(code))
        tokens.append(Token("NEWLINE", "", end_span))

    final = Span(line_no + 1, 1, len(source), len(source))
    if not rule_mode:
        while indent_stack[-1] > 0:
            indent_stack.pop()
            tokens.append(Token("DEDENT", "", final))
    tokens.append(Token("EOF", "", final))
    return tokens


def _comment_start(code: str):
    in_string = False
    for i, ch in enumerate(code):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return i
    return None
