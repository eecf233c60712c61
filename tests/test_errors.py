"""The error classes are the exit-code table: each leaf class leaves
``symp`` as one exit code and a one-line diagnostic, never a traceback, and
every deliberate refusal in the library raises one of them."""

import pytest

from symp import cli
from symp.errors import BudgetExceeded, OutOfRange, ParseError, PreconditionViolated
from symp.ffield import PrimeField, l_polynomial
from symp.haar import MCConfig
from symp.linstat import FourierTestFn, statistic_moment_exact
from symp.moments import moment_usp, moment_usp_sum
from symp.partitions import Partition


@pytest.mark.parametrize(
    "error,code",
    [
        (ParseError, cli.EXIT_CONFIG),
        (PreconditionViolated, cli.EXIT_CONFIG),
        (OutOfRange, cli.EXIT_OUT_OF_RANGE),
        (BudgetExceeded, cli.EXIT_BUDGET),
    ],
)
def test_each_leaf_class_has_one_exit_code(monkeypatch, capsys, error, code):
    def refuse(args):
        raise error("refused on purpose")

    monkeypatch.setitem(cli._HANDLERS, "moment", refuse)
    assert cli.main(["moment", "--n", "1", "--partition", "1^2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.endswith("refused on purpose\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "call,text",
    [
        (lambda: PrimeField(4), "q must be an odd prime, got 4"),
        (lambda: MCConfig(1, 2.5, 0), "sample_count = 2.5 is not an integer"),
        (lambda: MCConfig(1, 10, -1), "rng_seed = -1 is negative"),
        (lambda: MCConfig(1, True, 0), "sample_count = True is not an integer"),
        (lambda: MCConfig(1, 10, False), "rng_seed = False is not an integer"),
        (lambda: moment_usp(True, Partition({1: 2})), "n = True is not an integer"),
        (lambda: moment_usp_sum(2, 2, [(1, True)]), "block weight = True is not an integer"),
        (lambda: FourierTestFn.from_dict({True: 1}), "Fourier index = True is not an integer"),
        (lambda: statistic_moment_exact(3, True, 2, FourierTestFn.from_dict({1: 1})), "nu = True is not an integer"),
        (lambda: Partition({1.5: 2}), "invalid partition entry 1.5:2: not an integer"),
        (lambda: Partition({0: 1}), "invalid partition entry 0:1"),
        (lambda: FourierTestFn.from_dict({-1: 1}), "supply only j >= 0; evenness fills in the rest"),
        (lambda: l_polynomial(PrimeField(5), (0, 0, 1)), "h must be monic of odd degree >= 1"),
        (lambda: l_polynomial(PrimeField(5), (0, 0, 0, 1)), "h = (0, 0, 0, 1) is not squarefree"),
    ],
)
def test_refusals_raise_precondition_violated(call, text):
    with pytest.raises(PreconditionViolated) as refused:
        call()
    assert str(refused.value) == text
