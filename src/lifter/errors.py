"""Shared exception bases for everything this package can reject."""


class LifterError(Exception):
    """Base class for parse, validation, and loading failures."""


class PositionedError(LifterError):
    """A failure at a line and column of some text; the message starts with
    them, as "line:col: message"."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
