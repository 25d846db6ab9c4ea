"""Byte-identical stdout of the exact, exhaustive, series and simulate
commands: the sha256 of each one's stdout and its exit code.  The series
digests were recorded when the v_n tables, the two-block grids and the
Lemma 4.3 checks still computed in `Fraction`; the `couple`, `verify
coupling` and `simulate` digests when the coupling chain still ran one
sample at a time; the `exact`, `maxword`, `thm1a`, `thm3` and `thm4` digests
when `core._step` still pruned each age group member by member and `cli`
built a new parser per call.  The two `simulate` jobs of 600,000 and
200,000 trials (147 and 19 batches of batch_seen) were recorded when every
batch was drawn on the calling thread, and pin streams drawn over many
batches.  Any change to a printed value, its format, a verdict or a seeded
stream moves a digest."""

import hashlib

import pytest

from wordseen import cli

DIGESTS = [
    ("exact --word 01010101010101 --M 6", 0, "bcbef06e95dbdf1e5e138d4c8aec1061ecf5f018e3e990094d07e1bfe44944f2"),
    ("exact --word 01010101010101 --M 5 --p 1/3", 0, "24a1ba0af46830bbbbf3875d6b1c89ee69111c683e030381e02b86fe8a0d74a6"),
    ("exact --word 01010101010101010101010101 --M 3", 0, "efdf1e1946669d327670b2500b8542ce30abb27b3e849c5f02a2c68b35c1aaf4"),
    ("exact --twoblock 5 5 --M 6 --p 1/3", 0, "15c989efc6754c1d3427295fc1d2218dbe44cfd7902aabe6e9a3246a2021b779"),
    ("exact --twoblock 10 6 --M 4", 0, "35e80c03c4168c36fa31354a28d4a27d689db49208d4fde6aacc76ecdb1da0ad"),
    ("exact --word 1111000101 --M 6", 0, "2e2d6c2d6b6bfb4fb47fffa688a1e21d7823a2b2a9c87c545342fe2d2d2b7a42"),
    ("exact --word 01111010111000 --M 4 --p 1/3", 0, "445fe789edf26ea045324fe4f6b10853fcb713e4cd291205da00e47a085d2db6"),
    ("exact --word 001001111001111010 --M 3", 0, "7ca908198b009e6bd4619245f2fd44ed14efa2535b93c118856204712aaa7347"),
    ("exact --word 11100111010 --M 5 --p 1/3", 0, "4f8b4c5d83b8e6256f11f85a726b5f1ab16b54db0f2f38bf293160445bb8bac4"),
    ("maxword --n 8 --M 2", 0, "8cd48c64b3e62c8cc02197c97bd1098547bce950bcbe02c10a29a004ba26f5cd"),
    ("verify thm1a --n 6", 0, "989111cb422235ac8914a2bb8f9490b8ca9e64fbc9c8ac41ae9f95f93a1950f6"),
    ("verify thm3 --n 5", 0, "e6dd8abd1b88bbc7698808e1e5f5620ccace9b0c6ee2dbac6aa38b22f449b58e"),
    ("verify thm4", 0, "961837fce14355d4c7e3b085cc96837a07fb49a2293433d8f80e00de9c11008a"),
    ("verify lemma43", 0, "79b092646df3d51f283a2501d917ced6b2095a110dba2364aad3a6ca81c218ca"),
    ("verify renewal", 0, "2d7684ed37c0e64af5c3052ce002e913906bd15f98178927aa3885c5a643b458"),
    ("verify renewal --M 8", 0, "f0eb49a0c85bbe915024039aed2e1c8e61693b8c0f39f1506a0011ead1e4c9ac"),
    ("verify thm1b --n 6", 0, "b3609fe79c0983adf917cba2c82b1fc11ddf21935c5a03c0b4baefd785b9ab69"),
    ("verify thm1b --n 10", 0, "13fabbc01241d2639af13521d17382a6d445be3fea2204b85eb4fbe18b363582"),
    ("vn --M 6 --N 200", 0, "bc5c3309d320cf4ca9d5cee65edead96a1302acd3516aa3a333421c87212e62f"),
    ("twoblock --p 7 --q 3 --M 2", 0, "b3590c572d259f0b258b1beb7bc84d3e720695e8751b52da41c5594fe95fa544"),
    ("twoblock --p 6 --q 2 --M 3", 0, "76862a29f7443e8891b1535b9afc4391f5040769b7de0561ed56cc3054d1a6ea"),
    ("twoblock --p 1 --q 5 --M 4", 0, "9b7347408ecebdb3eedf7a37e23de4a5b248bdf4c0bb48fc23db75975a9cd3e6"),
    ("cm --M 2", 0, "853150ba75bdcf825320375342688219a2ce2f48803b4a67b35e3a7de7feffac"),
    ("cm --M 3", 0, "3fb2bbc20a3390ae4b54fbb02dbfbbd9bd0993b353dd84ca58a6f0e82a024a2e"),
    ("cm --M 4", 0, "f31d240ec5beb0339a030e4830758e57b10d90d1ba4ed2bea92ebb46ea30c244"),
    ("cm --M 5", 0, "e81d9bb066be6f4b7b7d7233b66d227a1cdb5aaaf3caf8e7813ade78908cf8a4"),
    ("cm --M 6", 0, "ac9335c3d20601e5fe6a213d2bc7349c1fb45f2e69de43e2e0623ca95cf6a6f0"),
    ("cm --M 7", 0, "14896ade5da2374224cd67e55559b595b164cb7c0f899afab5772d91d100be78"),
    ("cm --M 8", 0, "7164cba1a5d8405d066de4391175e329f1b2251c6d927065214378f5323dd96f"),
    ("couple --p-x 9/10 --p-y 1/10 --n 32 --trials 100 --seed 1", 0, "d9a2d7dad3107c5574127c0344187338493b40c22cdc3f4130534c133008c697"),
    ("couple --p-x 9/10 --p-y 1/10 --n 32 --trials 100 --seed 2", 0, "bb54245d21a33b61be63d0c1e245e0f4e1ed9e8e004307c831eb2d3b3a24e573"),
    ("couple --p-x 1/10 --p-y 9/10 --n 32 --trials 100 --seed 1", 0, "2fa89c75b188b6913717c3e31dea7ca64c52b8258b3d39e775ab54781304a45a"),
    ("couple --p-x 1/2 --p-y 1/2 --n 32 --trials 100 --seed 1", 0, "3f077dc63ecc4865c2b55d4b02ad56f342c6703dff4e10e8484e94e337d43dfa"),
    ("verify coupling --seed 1", 0, "b5d467c972c76d5c16d076fe2d451605c257a45c85b0f7bd6353514948a3a0cd"),
    ("verify coupling", 0, "b9ea1851ae49528f0224c2597a20cb9cb7aac618f42f334e6126ef8e7c1b9043"),
    ("simulate --word 1101 --M 3 --trials 5000 --seed 4", 0, "bff4bb5702d1184158bfd012fba469b4e1138b95edad5a65017dad4b3609c8f9"),
    ("simulate --p-x 2/5 --p-y 3/5 --n 5 --M 3 --trials 5000 --seed 4", 0, "93ede0d0244e37ec9a8527aa8d1f8f3c2696dc423e76b0b54212eb328f142bd6"),
    ("simulate --word 1010111100001110 --M 4 --trials 600000 --seed 1", 0, "1e9a64757882e01753d7fde7610b0463f75383a57e613d55b382501ac0f6b946"),
    ("simulate --p-x 3/5 --p-y 2/5 --n 8 --M 3 --trials 200000 --seed 1", 0, "8424e509641e97afbfcf9bb6ffe4020c1a5d3ab208bfc9d319018c5f76c62bf3"),
]


@pytest.mark.parametrize("line, code, digest", DIGESTS, ids=[d[0] for d in DIGESTS])
def test_stdout_digest_is_pinned(capsys, line, code, digest):
    assert cli.main(line.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
