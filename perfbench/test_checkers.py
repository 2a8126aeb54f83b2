"""Every checker reports a wrong answer as a failed operation.

    python3 perfbench/test_checkers.py
"""

from __future__ import annotations

import dataclasses
import tempfile
import unittest
from fractions import Fraction

import program

program.load()

import workloads  # noqa: E402  (needs the package path set by program.load)
from worker import run_round  # noqa: E402


def wrong(answer):
    """A plausible answer that differs from the given one."""
    if isinstance(answer, str):  # command-line output: one number
        return f"{Fraction(answer.strip()) + Fraction(1, 3)}\n"
    if isinstance(answer, (int, Fraction)):
        return answer + 1
    fields = {f.name for f in dataclasses.fields(answer)}
    if "gamma" in fields:  # gadget counts
        return dataclasses.replace(answer, gamma=answer.gamma + 2)
    if "x" in fields:  # PQE reduction: one cell of X off, the total unchanged
        x = dict(answer.x)
        x[(0, 0)] += 1
        return dataclasses.replace(answer, x=x)
    return dataclasses.replace(answer, p_result=answer.p_result + 1)  # UR reduction


class WrongAnswersFail(unittest.TestCase):
    def check_workload(self, workload: str) -> None:
        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.build(workload, 7, workdir, "tiny")
            clean = run_round(ops)
            self.assertEqual((clean["failed"], clean["messages"]), (0, []))
            for k, op in enumerate(ops):
                answer = op.call()
                bad = dataclasses.replace(op, call=lambda answer=answer: wrong(answer))
                with self.subTest(op=op.name):
                    result = run_round(ops[:k] + [bad] + ops[k + 1:])
                    self.assertEqual((result["failed"], result["wrong"]), (1, 1))
                    self.assertTrue(result["messages"][0].startswith(f"{op.name}: wrong answer"))

    def test_large_db(self):
        self.check_workload("large-db")

    def test_count(self):
        self.check_workload("count")

    def test_reduce(self):
        self.check_workload("reduce")

    def test_program_error_fails_without_a_wrong_answer(self):
        def broken():
            raise workloads.OpFailed("qreliab ur exited 1")

        with tempfile.TemporaryDirectory() as workdir:
            ops = workloads.build("reduce", 7, workdir, "tiny")
            result = run_round([dataclasses.replace(ops[0], call=broken)] + ops[1:])
        self.assertEqual((result["failed"], result["wrong"]), (1, 0))


if __name__ == "__main__":
    unittest.main()
