import check
from workloads import WORKLOADS, all_argvs, generate

# Flags whose value sets how much work an invocation asks for.
SIZE_FLAGS = {"--n", "--nmax", "--count", "--order", "--bins", "--alg", "--p", "--format"}


def _sizes(argvs):
    out = []
    for argv in argvs:
        command = tuple(w for w in argv[:2] if not w.startswith("--"))
        sizes = tuple((f, v) for f, v in zip(argv, argv[1:]) if f in SIZE_FLAGS)
        out.append(command + sizes)
    return sorted(out)


def test_same_seed_gives_same_list():
    for workload in WORKLOADS:
        assert generate(workload, 7) == generate(workload, 7)


def test_two_seeds_differ_in_inputs_not_sizes():
    for workload in WORKLOADS:
        a, b = generate(workload, 1), generate(workload, 2)
        assert a != b
        assert _sizes(a) == _sizes(b)
        if workload != "orbit":  # orbit has no input choices, only an order
            assert sorted(a) != sorted(b)


def test_every_generated_argv_has_a_reference():
    for workload in WORKLOADS:
        refs = check.load_refs(workload)
        space = all_argvs(workload)
        assert {check.key(a) for a in space} == set(refs)
        for seed in range(50):
            for argv in generate(workload, seed):
                assert argv in space
