"""Every numeric flag refuses a bad value by name, or runs.

The sweep walks :data:`repro.cli.COMMANDS`: each ``int`` or ``float``
flag of each command, plus the global ``--options`` (not ``--seed``),
is given bad values at tiny sizes: floats get nan, inf, -inf, -1 and 0,
integers get -1 and 0.  Each case runs in-process through
:func:`repro.cli.main` under a ``signal.alarm``, and must

* return 0 or 2, with no traceback (any other exception fails the test);
* finish before its alarm (a bad value must not hang the replay);
* on exit code 2, print an error that names the flag's destination, its
  ``_KEYWORDS`` keyword, or the field listed in :data:`ALIASES`.
"""

from __future__ import annotations

import contextlib
import io
import signal

import pytest

from repro.cli import _KEYWORDS, COMMANDS, main

#: Flags whose refusal names the field they feed under another name.
ALIASES = {"max_delay": "linger_s", "refresh_rows": "var_rows", "sweep": "n_cards"}

FLOAT_VALUES = ("nan", "inf", "-inf", "-1", "0")
INT_VALUES = ("-1", "0")

#: Seconds one case may take before it counts as a hang.
ALARM_S = 30

_TINY_REPLAY = ("--requests", "40", "--states", "4", "--cards", "2")

#: Global flags and command flags that keep each command's run tiny; a
#: flag under test replaces its entry here.
TINY = {
    "table2": ((), ("--engines", "1")),
    "cluster": (("--options", "8"), ("--cards", "2", "--engines", "1")),
    "risk": (("--options", "8"), ("--scenarios", "8", "--cards", "2")),
    "serve": (("--options", "8"), _TINY_REPLAY),
    "simulate": (("--options", "8"), _TINY_REPLAY),
    "gateway": (("--options", "8"), _TINY_REPLAY + ("--ticks", "4")),
    "chaos": (("--options", "8"), _TINY_REPLAY),
    "dashboard": (("--options", "8"), _TINY_REPLAY),
    "price": ((), ()),
    "trace": ((), ()),
}


def _numeric_flags():
    """``(command, flag, dest, value)`` for every numeric flag and bad value."""
    cases = []
    for name, command in COMMANDS.items():
        for names, kwargs in command.flags:
            flag = names[0]
            kind = kwargs.get("type")
            if kind not in (int, float) or flag == "--seed":
                continue
            dest = flag.lstrip("-").replace("-", "_")
            values = FLOAT_VALUES if kind is float else INT_VALUES
            cases += [(name, flag, dest, value) for value in values]
    # The global --options, once per value, on a command that reads it.
    cases += [("cluster", "--options", "options", value) for value in INT_VALUES]
    return cases


CASES = _numeric_flags()


def _without(args: tuple[str, ...], flag: str) -> list[str]:
    """``args`` with ``flag`` and its value dropped."""
    out, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg == flag:
            skip = True
        else:
            out.append(arg)
    return out


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "t.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        assert main(
            ["--options", "8", "serve", *_TINY_REPLAY, "--trace-out", str(path)]
        ) == 0
    return path


def _on_alarm(signum, frame):
    raise TimeoutError(f"case still running after {ALARM_S} s")


def test_sweep_covers_every_numeric_flag():
    flags = {(cmd, flag) for cmd, flag, _, _ in CASES}
    assert ("gateway", "--tick-rate") in flags
    assert ("simulate", "--refresh-period") in flags
    assert ("trace", "--top") in flags
    assert ("cluster", "--options") in flags
    assert {cmd for cmd, _ in flags} == set(TINY)


@pytest.mark.parametrize(
    "command,flag,dest,value",
    CASES,
    ids=[f"{c}{f}={v}" for c, f, _, v in CASES],
)
def test_bad_numeric_flag_is_refused_by_name_or_runs(
    command, flag, dest, value, trace_file, tmp_path
):
    global_args, command_args = TINY[command]
    if flag == "--options":
        global_args = [f"--options={value}"]
    else:
        command_args = [*_without(command_args, flag), f"{flag}={value}"]
    if command == "trace":
        command_args = [str(trace_file), *command_args]
    if command == "dashboard":
        command_args = [*command_args, "--out", str(tmp_path / "d.html")]
    argv = [*global_args, command, *command_args]
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            err
        ):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), argv
    if code == 2:
        names = [dest, _KEYWORDS.get(dest), ALIASES.get(dest)]
        message = err.getvalue()
        assert message.startswith("error: "), message
        assert any(n and n in message for n in names), (argv, message)
