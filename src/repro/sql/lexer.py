"""Tokenizer for the top-k SQL dialect."""

from repro.common.errors import ParseError

#: Keywords, uppercased.  ``RANK`` and ``OVER`` are contextual but we
#: reserve them -- the dialect has no other use for those identifiers.
KEYWORDS = frozenset((
    "WITH", "AS", "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY",
    "RANK", "OVER", "DESC", "ASC", "LIMIT",
))

#: Multi-character operators (checked before single characters).
_TWO_CHAR = ("<=", ">=", "<>", "!=")
_ONE_CHAR = "(),.*+=<>-/;"

#: Number literals take ASCII digits only: ``str.isdigit`` also accepts
#: ``²`` or ``٣``, which ``float()`` rejects or silently reinterprets.
_DIGITS = frozenset("0123456789")


class Token:
    """One lexical token: kind, text, and source position."""

    __slots__ = ("kind", "text", "position")

    #: Token kinds.
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    SYMBOL = "symbol"
    END = "end"

    def __init__(self, kind, text, position):
        self.kind = kind
        self.text = text
        self.position = position

    def is_keyword(self, word):
        return self.kind == self.KEYWORD and self.text == word.upper()

    def is_symbol(self, symbol):
        return self.kind == self.SYMBOL and self.text == symbol

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


def tokenize(text):
    """Return the token list for ``text`` (ending with an END token)."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < length and text[i + 1] == "-":
            # Line comment.
            end = text.find("\n", i)
            i = length if end == -1 else end + 1
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(Token.SYMBOL, two, i))
            i += 2
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < length
                             and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < length and (text[j] in _DIGITS
                                  or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot followed by a non-digit ends the number
                    # (e.g. ``5.`` in ``rank<=5.``); only consume it
                    # when a digit follows.
                    if j + 1 >= length or text[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(Token.NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(Token.KEYWORD, upper, i))
            else:
                tokens.append(Token(Token.IDENT, word, i))
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token(Token.SYMBOL, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % (ch,), position=i)
    tokens.append(Token(Token.END, "", length))
    return tokens
