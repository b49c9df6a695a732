"""The ``--help`` text of the ``nilorb`` command, written from the command
table of ``cli``.  Only ``--help`` loads this module: where bytecode is not
cached, every process compiles ``cli``, and that compile sets the peak
memory of a cache hit, so text that only help prints is kept out of it."""

import textwrap


def _text(usage: str, about: str, sections) -> str:
    """The usage line, ``about``, and each section's title over its rows of
    (term, description)."""
    lines = [f"usage: {usage}", "", textwrap.fill(about, 79)]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        for term, text in rows:
            body = textwrap.wrap(text, 55)
            if len(term) <= 20:
                lines.append(f"  {term:<22}{body.pop(0)}")
            else:
                lines.append(f"  {term}")
            lines += [" " * 24 + line for line in body]
    return "\n".join(lines)


_HELP = ("-h, --help", "show this help message and exit")


def top_help(commands) -> str:
    """The help of ``nilorb`` itself; ``commands`` is ``cli._COMMANDS``."""
    return _text(
        "nilorb [-h] [--version] COMMAND [options]",
        "Exact orbit counting for tuples of nilpotent matrices over finite fields "
        "under simultaneous conjugation.",
        [("commands", [(" ".join((name, *(f"({alias})" for alias in aliases))), text)
                       for name, aliases, text in commands]),
         ("options", [_HELP, ("--version", "show the version number and exit")])])


def command_help(row, arguments) -> str:
    """The help of one command: ``row`` is its row of ``cli._COMMANDS`` and
    ``arguments`` its arguments (``cli._option``)."""
    name, _, about = row
    usage, rows = f"nilorb {name} [-h]", [_HELP]
    for a in arguments:
        value = "{" + ",".join(a.choices) + "}" if a.choices else a.dest.upper()
        if a.flag[0] != "-":  # the positional argument
            usage += f" {value}"
            term = value
        else:
            term = a.flag if a.type is bool else f"{a.flag} {value}"
        rows.append((term, a.help + (" (required)" if a.required and a.flag[0] == "-" else "")))
    return _text(f"{usage} [options]", about, [("options", rows)])
