"""Pinned stdout of every command, the eager parser, and a replay of both that needs only the standard library.

``GOLDEN`` lists one small invocation of every command with the SHA-256 of
its stdout in CSV and in JSON.  ``PARITY`` lists help, usage-error and
valid argvs that the CLI, which parses a plain command argv from the
command's table entry without argparse and leaves any other to argparse,
must answer as ``eager_parser`` (one tree of every parser and flag,
through which argparse dispatches each argv) does: same exit code, stdout
and stderr.  ``tests/test_cli.py`` checks both in
process; run this file under any supported Python to replay them there,
argparse's dispatch included:

    PYTHONPATH=src python3.13 tests/golden.py

It exits 0 when every GOLDEN argv, in both formats, exits 0 with no stderr
and the pinned bytes, and every PARITY argv matches the eager parser, and
otherwise prints one line per mismatch and exits 1.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from repstat import cli
from repstat.cli import main

# SHA-256 of stdout for one small invocation of every command, in CSV and
# in JSON, as the per-command emitters produced them before the CLI became
# one command table; any change to a table's bytes shows here.
GOLDEN = [
    ("sym sweep --n 6", "8792adc09117445941556f3707cfb7465e751f85df0f672182cf8b94fcb19bac", "b9370bc9e0cf012a399aa13684880f1d1bec44265394e8ce5bed388f03ea1008"),
    ("sym hist --n 10 --what dim --bins 6", "a4484e2016d7bf93f17cc39a9036f39822414c931b75f2b70b9545241dfdb4ce", "08f30dae4bb6d6de24786beb9b62ee46d9e4c51c1673922c348194632f7746a4"),
    ("sym angle --nmax 8", "0f2ade10833685e7e04e1ef84985d05dce53bcad79103c136c939d9ad228b9b5", "79bd3bb3e0fb16c579d2c7113e0d923c9d938d66bddeee886a2d31bc1ded6e13"),
    ("sym intervals --n 7 --alpha 0.3 --beta 0.8", "5b8f5cc58dc0a186d662728f2115ea07a8aed3ac0e380198e2fc4bb538490470", "10425f24ce8b20855f2828b05ed0ec23e32782ec85078d81e5ec6a9a7bda3acb"),
    ("sym layers --n 6", "f6e3e95222d8f99ca6e5dcfb8f50c53421ba3d7812bce5d79e72a7f2cf65322e", "f7d1e17a8fc5bb1d80574234676e0566b22226baadfa94593ed075a97f98d134"),
    ("sym maxdim --nmax 6", "6dabdc2ae2a79264ad6af60f682196102416c94f4202a0b137e93837bf3dc6e2", "e373133d297dc4bc78c00ed25a559791e551414d6c56ed37c6c311dbb64143a9"),
    ("sym plancherel --n 8 --count 5 --seed 3", "598674890d108306a2e50a3e022cb2e2cd6cb10e917874d0c31dc3289f42c138", "4baaf1760aa62cb0ddda2c4585891294c9f65bcdcf4a8713a797b1287776efd1"),
    ("gl gow --nmax 4", "375b0b2af57793e61bcb691b4a5ab8a4085af66aa7b726137f0d27dd76381090", "5a6a518803407a8a9d3cbc909b4dbef7227357eb7dfc3a01140d9dfe2e26de09"),
    ("gl classes --nmax 5", "a3ec8f778d1652894b0508262cec887f9ea51830f538f93263c35567f717b5db", "0d244b5772182df8972e25eee065e170a4b029d7a5c9dca6b9f198bba523fa26"),
    ("gl order --nmax 3", "52bd4040dcb857898b5096a03a62ccf3e383bd7a4c7e3624047f50394d2ffab3", "07b1dc71299d490304b67ae74660368d4bb4e4a87f8fb1b7db77e2748340903e"),
    ("gl ratio --nmax 6 --q 2", "3df0230d2beab5ef0e17fda5accf21921159a57a45aedce725382c0b6cc21a43", "5b19ab630ef6f34d6c4d81ad729c99b3fb893b336a49e6cad6b0408a74d74c57"),
    ("gl census --q 3", "ef9448ab0ed861d174b7b717a28b34b8bcd689f6f44e7de044e7e96143bdc46c", "6cab82ef7e54026acfa50f7004cc29df1a8d52ff03d7f65ef30f89fe03831615"),
    # q = 2 has the zero-count principal-series row; q = 8 is an even prime power.
    ("gl census --q 2", "449ae4edf8de3a539f3cff7cd40be97812d4754c746a79e2100b11d43a2d3889", "1a18599a2e1a7f87d36e8498295ebb80162f954570db3026eab1ffb2fc9bfe80"),
    ("gl census --q 8", "e0e9fa038d99c3e4946780b7351774a8243e5c0c4448bceac736296741781664", "0d25dbe5050afc86324135bc9f2e509a68984ca4336ca1cb6d7c30da917a31ef"),
    ("gl gauss --order 25", "c0188b35f9eb4edfde918bfafd66e2d30dbc4b3d47c542ec744fb73f6934b0d3", "0b1969261fe16f3cfa1f5f364c2980864ceff55dce4ff8112ce8ae63263cf1fc"),
    # The two kirillov JSON pins were hashed from the output of the flat-list
    # report with its "report" block popped and re-rendered by
    # json.dumps(payload, indent=2) + "\n"; their CSV pins are unchanged.
    ("kirillov --alg heis3 --p 3", "bdc7e2ccfa845d6704bb8363d86ca7f9d396834c624ae5d951f9830f36019d09", "4f988a199da8eca44a7eb0be12a442a852764a09f13af97fcd72862782447e61"),
    # Sizes where class sizes and n! pass 64 bits, so ln_big takes its shifted path.
    ("sym sweep --n 30", "d8e5788e860c704ac5ba8cedad18860c797ccdd80cd20a4cfb047358860f4e6d", "dc071648217ab23c3eb359b958b2e46facd972caf3b4961b1b3d060b26938676"),
    ("sym layers --n 24", "ec9b5416c47da0a09faf02a6e94735834f02cc81b39a29951c22789c7b344219", "4dd933fa2ecc311ade2b93260031efffcbc5371ae93299df323c558d895e911f"),
    ("sym maxdim --nmax 24", "9de8b778bcf6db7b4b412a3e3065933b1ce281ae26e16b7529c88d6d1a906ad4", "83fdd5ebcedc39480349438d057960435c153c8b2b1390317058dda0bf481415"),
    # Above the n = 30 pin: rows built by the bottom-up row walk, hashed from
    # the top-down per-partition hook products it replaced.
    ("sym sweep --n 36", "1dd81c7b8908f99a646f5850e85d9ec5ef31b0d039225096b936ebde79782c90", "fc4c4ac4cfae396eb91d505c3485270262d234d6ebfb4db3cb3bee706353de24"),
    ("sym hist --n 26 --what class --bins 20", "d89a37ab692a31c6a06a67e59ee395ae6f647d6d02c7ad4cf85fb138595ff3b1", "868d34ac46d45200db97d3736b9c8b9be5c4c667df1df486d5b6ccff2ce9ea06"),
    # A size the orbit benchmark does not run, hashed from the BFS engine's output.
    ("kirillov --alg ut4 --p 7", "a22719b7eee4d1b6a1f43464ccafcd8a0a40f6e54c5cdaaa40a3a9631d2f6d35", "0a490242fa789b1c1dcc7371887a34eb1b4db6cd708ff6cdfe4184b00fcc0232"),
    # The largest ut4 prime of the whole-space walk's cap, hashed from that walk's output.
    ("kirillov --alg ut4 --p 31", "b9d038246ecb6e8758485a6aa27a9dbda32ca8054ca9f56e246c43cd0114525c", "2ae25eaec1078cfd2df2feea4bd85b62cc0fa4f20d12462f83fec70dc15c6f20"),
    # 20 x 999 stream outputs, hashed from the one-draw-per-step shuffle.
    ("sym plancherel --n 1000 --count 20 --seed 11", "95915ce21c4ab7e3f5948beca238d2ca1889073599067209ec1c74e590aead96", "5418bac6fe27bb0f7eb8d65acb5a6790113021b8f6df4c13a6687ac10c8f72cf"),
    # Benchmark sizes of the Fraction cells and of the polynomial and
    # coefficient-tuple cells, hashed before every cell went through one
    # table per format; the benchmark compares real columns only to 1e-11.
    ("gl ratio --nmax 40 --q 7", "0b01ece074bbd036fc6b4c3e31b12372056ec89eb5cb88a131baea8c4ab9d513", "a3626a2a85a5597c33e0786824675d623021262e87bd8b78405b33567fddf747"),
    ("gl classes --nmax 60", "71fe617efc2ef37d90f010f1055874e8bb298a7325422ef5c60b19be5c1b85d1", "fab5a72d410b3004730042a9915cdaacb55b9770583ce92d21d40b1c6e0dcd79"),
    # The polynomial cap, above the benchmark's 40 and 30, hashed from the
    # (q^a - q^b) pair products that the q^s * prod (q^e - 1) form replaced.
    ("gl gow --nmax 60", "cd969e9313825d9c36c3295f3ae24e76168710a3d505da3a57df52eba98b77c5", "a99e115191fe5b2d9e2a02558d38e235e0e28d0962c7a3f9d4c3dbcc7e520e8d"),
    ("gl order --nmax 60", "18756d88a0e8638563dc644e0904aadf0f1dfd4617faa9d433b16433ad1fb7cb", "e7fb8a9ba0d22f58c06ed7be308e300428cecbdbc4c74f6074e4726747f47eff"),
]


def eager_parser():
    """The CLI's parser as it was built before plain argvs were parsed without argparse: all 17 parsers, every flag."""
    parser = cli._parser_class()(prog="repstat", description="Exact dimension statistics of finite groups")
    topics = parser.add_subparsers(dest="topic", required=True)
    groups = {}
    for cmd in cli._COMMANDS:
        *topic, name = cmd.path
        if topic and topic[0] not in groups:
            group = topics.add_parser(topic[0], help=cli._TOPICS[topic[0]])
            groups[topic[0]] = group.add_subparsers(dest="command", required=True)
        p = (groups[topic[0]] if topic else topics).add_parser(name, help=cmd.help)
        for flag, spec in cmd.args.items():
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(cmd=cmd)
    return parser


def eager_parse(argv):
    """argv parsed by the eager parser, in the place of the CLI's parse step."""
    return eager_parser().parse_args(argv)


# Help pages, usage errors (argparse's dispatch order decides which error
# an argv meets first) and one valid argv per command.
PARITY = [
    ["-h"], ["sym", "-h"], ["gl", "-h"],
    *([*cmd.path, "-h"] for cmd in cli._COMMANDS),
    [], ["sym"], ["gl"], ["foo"], ["sym", "bogus"], ["gl", "cen"], ["kirillov", "sweep"],
    ["--foo", "sym", "sweep", "--n", "3"], ["--", "sym", "sweep"], ["sym", "sweep", "--", "--n", "3"],
    ["sym", "sweep"], ["sym", "sweep", "--n", "x"], ["kirillov", "--alg", "nope", "--p", "3"],
    ["gl", "ratio", "--nmax", "3", "--q", "2", "--format", "xml"], ["sym", "hist", "--n", "5", "--bins"],
    # Inline values, abbreviations, help among flags, "--" and a stray path word after a command's path.
    ["sym", "sweep", "--n=3"], ["sym", "sweep", "--n", "3", "--fo", "json"], ["sym", "sweep", "-h", "--n", "3"],
    ["sym", "sweep", "--n", "3", "--", "x"], ["sym", "sweep", "--n", "3", "sym"],
    ["kirillov", "--alg", "ut4", "--p", "5", "--", "--format", "json"], ["gl", "census", "--q", "3", "--format=json"],
    ["gl", "ratio", "--nmax", "3", "--q", "2", "--", "--q", "3"],
    # A repeated flag, a negative value, "-" as a value (the refusal opens no
    # file named "-"), an empty value, and flags in another order.
    ["sym", "sweep", "--n", "3", "--n", "4"], ["gl", "ratio", "--nmax", "3", "--q", "-2"],
    ["sym", "sweep", "--n", "0", "--out", "-"], ["sym", "sweep", "--n", ""],
    ["gl", "ratio", "--q", "2", "--nmax", "3"], ["sym", "sweep", "--format", "json", "--n", "3"],
    *(next(argv.split() for argv, *_ in GOLDEN if tuple(argv.split()[: len(cmd.path)]) == cmd.path)
      for cmd in cli._COMMANDS),
]


def run_with(parse, argv) -> tuple[int, str, str]:
    """main(argv) with the CLI's parse step cli._parse swapped for parse: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    real, cli._parse = cli._parse, parse
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse exits after a help page
                code = exc.code
    finally:
        cli._parse = real
    return code, out.getvalue(), err.getvalue()


def replay_parity() -> list[str]:
    """Every PARITY argv through the CLI's parser and the eager one; the argvs whose answers differ."""
    return [f"{' '.join(argv)!r}: differs from the eager parser" for argv in PARITY
            if run_with(cli._parse, argv) != run_with(eager_parse, argv)]


def replay() -> list[str]:
    """Every GOLDEN argv in CSV and JSON through the CLI in process; the invocations that differ from their pin."""
    mismatches = []
    for argv, csv_sha, json_sha in GOLDEN:
        for extra, sha in (([], csv_sha), (["--format", "json"], json_sha)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv.split(), *extra])
            got = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            if (code, err.getvalue(), got) != (0, "", sha):
                mismatches.append(f"{argv} {' '.join(extra)}".strip() + f": exit {code}, sha256 {got}")
    return mismatches


if __name__ == "__main__":
    mismatches = replay() + replay_parity()
    print("\n".join(mismatches) or f"{2 * len(GOLDEN)} outputs match on Python {sys.version.split()[0]};"
          f" {len(PARITY)} argvs parse as the eager parser parses them")
    sys.exit(1 if mismatches else 0)
