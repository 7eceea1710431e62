"""Byte pins of every workload generator's columnar output.

Each case hashes ``columnar(op).data.tobytes()`` (``TRACE_DTYPE`` is
packed, so those bytes are the eight columns and nothing else) and the
interned file names.  The cases cover every op each generator accepts,
at the arguments the figures, the two tenant classes, the online
experiment, the chaos sweep and the examples pass, plus the small
configurations the other workload tests use.  A generator rewrite must
keep every pin: same rows, same order, same file-name table, same
timestamp bits.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import pytest

from repro.harness.chaos import chaos_trace
from repro.harness.figures import FIG7_SIZE_MIXES, FIG9_PROC_MIXES
from repro.tracing.columnar import TRACE_DTYPE, ColumnarTrace, as_columnar_trace
from repro.units import KiB, MiB
from repro.workloads import (
    BTIOWorkload,
    CheckpointWorkload,
    CholeskyWorkload,
    HPIOWorkload,
    IORMixedProcsWorkload,
    IORWorkload,
    LANLWorkload,
    LUWorkload,
    Workload,
)

#: generators whose default op is the full read+write trace
_FULL_DEFAULT = (CheckpointWorkload, CholeskyWorkload, LUWorkload)


def _ior(procs: int, kib: tuple[int, ...], total: int, **kw: object) -> IORWorkload:
    sizes = [k * KiB for k in kib]
    return IORWorkload(num_processes=procs, request_sizes=sizes, total_size=total, **kw)


def _workloads() -> dict[str, Workload]:
    """Every pinned generator configuration, by case name."""
    cases: dict[str, Workload] = {}
    for mix in FIG7_SIZE_MIXES:  # Figs. 7, 8 and 10
        cases[f"fig07-{'+'.join(map(str, mix))}"] = _ior(32, mix, 32 * MiB)
    for procs in FIG9_PROC_MIXES:
        cases[f"fig09-{'+'.join(map(str, procs))}"] = IORMixedProcsWorkload(
            process_groups=procs, request_size=256 * KiB, bytes_per_group=16 * MiB
        )
    for procs in (16, 32, 64):
        cases[f"fig11-{procs}"] = HPIOWorkload(
            num_processes=procs,
            region_count=1024,
            region_sizes=[16 * KiB, 32 * KiB, 64 * KiB],
        )
    for procs in (9, 16, 25):
        cases[f"fig12a-{procs}"] = BTIOWorkload(
            num_processes=procs, steps=20, scale=1 / 64
        )
    cases["fig12b"] = LANLWorkload(num_processes=8, loops=48)
    cases["fig13a"] = LUWorkload(num_processes=8, slabs=24)
    cases["fig13b"] = CholeskyWorkload(num_processes=8, panels=20, seed=7)
    for procs in (8, 32, 128):
        cases[f"fig14-{procs}"] = _ior(procs, (4, 64), 8 * MiB)
    cases["tenant-hot"] = _ior(2, (16, 64), 512 * KiB, file="hot.dat")
    cases["tenant-tail"] = CheckpointWorkload(
        num_processes=2,
        checkpoints=2,
        header_size=4 * KiB,
        payload_size=1 * MiB,
        restart=True,
        file="ckpt.dat",
    )
    cases["online-a"] = CheckpointWorkload(
        num_processes=4, checkpoints=4, payload_size=256 * KiB, file="app.dat"
    )
    cases["online-b"] = _ior(8, (16, 64), 4 * MiB, seed=1, file="app.dat")
    # examples
    cases["ex-quickstart"] = _ior(32, (128, 256), 64 * MiB, seed=7)
    cases["ex-capacity"] = _ior(32, (128, 256), 32 * MiB, seed=3)
    cases["ex-degraded"] = _ior(16, (128, 256), 32 * MiB, seed=11)
    cases["ex-reordering"] = LANLWorkload(
        num_processes=8, loops=32, file="checkpoint.dat"
    )
    # the small configurations of the other workload tests
    cases["ior-uniform"] = _ior(4, (64,), 1 * MiB)
    cases["ior-mixed"] = _ior(4, (64, 128), 4 * MiB)
    cases["ior-disjoint"] = _ior(4, (16, 64), 2 * MiB)
    cases["ior-seed3"] = IORWorkload(num_processes=2, total_size=1 * MiB, seed=3)
    cases["ior-odd-procs"] = _ior(7, (4, 64), 1 * MiB, seed=3)
    cases["ior-in-order"] = _ior(
        7, (4, 64), 1 * MiB, seed=3, randomize_offsets=False
    )
    cases["ior-small"] = _ior(4, (8,), 512 * KiB)
    cases["procs-2+4"] = IORMixedProcsWorkload(
        process_groups=(2, 4), request_size=64 * KiB, bytes_per_group=1 * MiB
    )
    cases["procs-3+5"] = IORMixedProcsWorkload(
        process_groups=(3, 5), request_size=16 * KiB, bytes_per_group=512 * KiB
    )
    cases["procs-4"] = IORMixedProcsWorkload(
        process_groups=(4,), request_size=64 * KiB, bytes_per_group=1 * MiB
    )
    cases["hpio-cycle"] = HPIOWorkload(
        num_processes=2, region_count=6, region_sizes=(16 * KiB, 32 * KiB, 64 * KiB)
    )
    cases["hpio-spacing"] = HPIOWorkload(
        num_processes=1, region_count=2, region_sizes=4 * KiB, region_spacing=1024
    )
    cases["btio-small"] = BTIOWorkload(num_processes=4, steps=4, scale=1 / 16)
    cases["lanl-2x2"] = LANLWorkload(num_processes=2, loops=2)
    cases["lanl-1x2"] = LANLWorkload(num_processes=1, loops=2)
    cases["lu-2x8"] = LUWorkload(num_processes=2, slabs=8)
    cases["lu-4x6"] = LUWorkload(num_processes=4, slabs=6)
    cases["lu-1slab"] = LUWorkload(num_processes=3, slabs=1)
    cases["cholesky-2x6"] = CholeskyWorkload(num_processes=2, panels=6)
    cases["cholesky-seed5"] = CholeskyWorkload(seed=5)
    cases["cholesky-1panel"] = CholeskyWorkload(num_processes=3, panels=1)
    cases["ckpt-2x3"] = CheckpointWorkload(num_processes=2, checkpoints=3)
    cases["ckpt-3x4"] = CheckpointWorkload(num_processes=3, checkpoints=4)
    cases["ckpt-no-restart"] = CheckpointWorkload(
        num_processes=3, checkpoints=4, restart=False
    )
    cases["ckpt-default"] = CheckpointWorkload()
    return cases


WORKLOADS = _workloads()


def _ops(workload: Workload) -> tuple[str | None, ...]:
    if isinstance(workload, _FULL_DEFAULT):
        return (None, "read", "write")
    return ("read", "write")


def _chaos(**kw: int) -> Callable[[], ColumnarTrace]:
    return lambda: as_columnar_trace(chaos_trace(**kw))


#: case id -> the trace it pins
CASES: dict[str, Callable[[], ColumnarTrace]] = {
    f"{name}-{op or 'all'}": (lambda w=workload, op=op: w.columnar(op))
    for name, workload in WORKLOADS.items()
    for op in _ops(workload)
}
CASES.update(
    {
        "chaos-default": _chaos(),
        "chaos-perf": _chaos(processes=16, phases=24),
        "chaos-4x6": _chaos(processes=4, phases=6),
        "chaos-8x40": _chaos(processes=8, phases=40),
        "chaos-small": _chaos(processes=2, request_size=8 * KiB, phases=4),
    }
)


def digest(trace: ColumnarTrace) -> str:
    """sha256 over the packed rows and the interned file names."""
    hasher = hashlib.sha256(trace.data.tobytes())
    hasher.update(repr(trace.interned_files).encode())
    return hasher.hexdigest()


#: computed from the record-path generators they replaced
PINS: dict[str, str] = {
    "btio-small-read": "a8c683853b82d256f4da0b350379d9958babb777843b8ccf638b6d83af1653c7",
    "btio-small-write": "150c839f97a3777426205df123803dfd05ab59dfb148bbe89da96260f4881806",
    "chaos-4x6": "ae6f24d65b42a9ce2304854a71e6b7db44aaba9d9186f10a8909cff732840611",
    "chaos-8x40": "88a44ea40dbdfc2b9b682ac970d57d947f50b81c28eb9cc0ac423ffc2796b0a9",
    "chaos-default": "4a0b7cb527898a3d743bc3e53f37902c69834de34f49667c6f0d59ede0967a3e",
    "chaos-perf": "5fc8ff9cd9c9f1d8e1e93c103f2f57f54f130393ee71855d3e382eec63a3fe53",
    "chaos-small": "4928fa0824b0f99bc63f182d13c58a11c1e8c13c8f6e448d7236f8208bb202ee",
    "cholesky-1panel-all": "a9a582ce7957393e2fc09778c8b34184284a9fd7b4a2c4b3574564931efe6bc0",
    "cholesky-1panel-read": "8d60a1ec410c891ea304bf969e43ce1dcf6081e7c3797505a68ff435fa72b960",
    "cholesky-1panel-write": "8ead4b0228c5fe53c4c40a68c8647dafce93c5c4a7b8620b2fae5a58bb9c6a93",
    "cholesky-2x6-all": "42cde07119d2b01debc0fff590554b47fea1e93764e10a530596571b1b5ca402",
    "cholesky-2x6-read": "1c2cc78c0431f6115d4c631599b66089b4bc117ce92cb3924e7939b574f6d8e7",
    "cholesky-2x6-write": "f6dc500254428787908fa939c8f87f184fce947d35bcacad2254ce85255fd63b",
    "cholesky-seed5-all": "3250fef8f300d4694f4b35234d48ebd6963bb0f7c15b3295fac845bb6645b3a9",
    "cholesky-seed5-read": "d4fad13d77e7bc30934a0643dd145b70ba608a3e8785885a44bf59caffc9f9d7",
    "cholesky-seed5-write": "740f72513444a155ec62b5947efe4ea6d48f5524fdcceb182e72cf7bc57d5e03",
    "ckpt-2x3-all": "0c1a8aa43de77a1c1c028dfa8bcbe752cdcc393794e29ac5fdff412c7d0ba6de",
    "ckpt-2x3-read": "438fd5e95181c0d832c47ee2d5866bbccdb3b65b612f1714063102350d5ad4bf",
    "ckpt-2x3-write": "57ff694ed540789b19ebd9723ca5c5e719795733a98ce3318c2b2d9e2c28c3ce",
    "ckpt-3x4-all": "f64dff6d75063430320174ab5c50680eacfb5c8dddeb6a34a549b3bb3cfbf9f6",
    "ckpt-3x4-read": "dd81e1bbe3748c76bb50ba19eda054ddacea48994ed36f2f78ccc0c127b2a100",
    "ckpt-3x4-write": "c033a8f3e9a834d71f2200b2748cfe0b3acae5ac88a6ed956b426b1ac15c5725",
    "ckpt-default-all": "f486bd2a98131e10b589d84fe1d9717134b717ec8e565ce6553130958990481e",
    "ckpt-default-read": "38b237b8dd934b3bf8289bb127b2de50e8d5174f0560efb0faf03912406905f9",
    "ckpt-default-write": "5f0097c8f89068da283674f5b5d55818b7e14709d830ac7ec99bdf43dfa59a35",
    "ckpt-no-restart-all": "c033a8f3e9a834d71f2200b2748cfe0b3acae5ac88a6ed956b426b1ac15c5725",
    "ckpt-no-restart-read": "d53d5417eafe240e4d5d97e6baab48535ec6bbda1a55d609fd979ea4ce757aa5",
    "ckpt-no-restart-write": "c033a8f3e9a834d71f2200b2748cfe0b3acae5ac88a6ed956b426b1ac15c5725",
    "ex-capacity-read": "892ae265547b31774f2f21fee70c0a763b49a14670982e1010dc4bd5ac2c6c21",
    "ex-capacity-write": "cd13ecd7bfb67ef4c7af6d41d7d576e11e72293e213204e8cc01824eb003da55",
    "ex-degraded-read": "85cadedba69450709bbb2f976886e46b30502a44795dd932a3aaa15fe4a6e2f5",
    "ex-degraded-write": "4cce899700dc897c733b92c983c611df883a81b3a0213c03f88a8169882d4d8b",
    "ex-quickstart-read": "5e27dd4eea7930079ebdc7d2fc30fe074f0652dd82b617fbd1abbaa39088d004",
    "ex-quickstart-write": "e324ce28ef665581da2baeaf438b77feb710fb124c06b28b84d9d8d71a2d70af",
    "ex-reordering-read": "8f063d0536b25ba601c4fc27095c834bf5eb9173608d048edccd5c8017b886c7",
    "ex-reordering-write": "d3ec11f99169c2a6499880ef6063a504aa7e867179794501b918accd4b2ea729",
    "fig07-128+256-read": "e6f26bcc007e9f6c4ddfa330e2b3872b6c3c1180c01e2ac42263d938059dfea3",
    "fig07-128+256-write": "fc4beb17318f125a2f7c28d79762217cdf711d76b2fef0d2c539103bebab1189",
    "fig07-16-read": "71bec71aea4217c39e7a5c842673d04f780318f560dab9bb1767911af7dccd26",
    "fig07-16-write": "2bbbf866e5af6b10efb76e5ad38780c16af8d2b1337f8ff2b23bcac0fdb874f8",
    "fig07-256+512-read": "9c1bdbfbf7a8eab84498f9679896b9b4ef6283a8d720de760e7e8375f917684d",
    "fig07-256+512-write": "a65671cd09324413c0fc17f96af5b88186fe087b629dd7e0e1134efb77e606b6",
    "fig07-64+128-read": "deb0715e0ae57a7da3ce9060ea03b6818e196e4f4566b6f0cd3c54141f74cf65",
    "fig07-64+128-write": "9e9604b89302ffe95bb7ad1b7e6da3908b0fba0e7067bf18ddbb66de27e7f5ff",
    "fig09-16+64-read": "2397fc0bc079a81ff78de8cafe108885f05609759809b2fdcf26efb3c179e062",
    "fig09-16+64-write": "b47aa4506f5664c64f707f989b1e86f5e03737614912fac091fac573e5028c82",
    "fig09-32+128-read": "bc4db6de18b657c50c57d8ec1e69d0ce12b524e69fe0c2497bf5a5af2425f9b9",
    "fig09-32+128-write": "32dc834307d2279ffd97916a933e4eff376e007a5cdfeac74422c83deed3246f",
    "fig09-8+32-read": "12c6245791de4aa3d6e6d0cf53b9cce0d8493cf0a07e6a30433fc21495678559",
    "fig09-8+32-write": "a49dd7cac98aa25f66c8da12b9ee4b63aceb4f0ffd9a1580dc3ba9bd15e8d3e1",
    "fig09-8-read": "54203907f9174dcf178fe7addfb07dcbde9fbc47fb1886ac642e4f3005c0c2ef",
    "fig09-8-write": "c4af9fbe0ed9a59c97e01b27616b79809a36a71a9e989d631faeae0445e8eb39",
    "fig11-16-read": "e7496dbe33963204347cfa4670391c98fdde2793bd7517d1d6e45a35890629f9",
    "fig11-16-write": "a368a44fa818e736790e8100453644dede39819d26857b415a61ca2fcab050bf",
    "fig11-32-read": "abf6e8d0f13134c30ca5984809ae79d521041ce71fd5ab2f980c432148165ef9",
    "fig11-32-write": "f3bf0668c3bfad5a64d7ffa32e7b66605d58eb145011f50df09a43d6b72f24a8",
    "fig11-64-read": "0fd578e29cede1c218ca8c20e2ce4bfcfa343c071a6bf7a2dc53b5c5162d3c72",
    "fig11-64-write": "51362be136e21f2f548b7b02238d1dd037d487374cb93aa478e396a0b93c13d5",
    "fig12a-16-read": "e2f6481a29fc0756bed85dcc8f6e80b15fe1450213ed92579cc3c9e886d65a61",
    "fig12a-16-write": "ece8180be9e5754caa92578ad663adca67baf7d299c6bc387b864dc3815cc1f5",
    "fig12a-25-read": "3dbb4fb210361cc42f3ffd9d5f013f3feebf1e70ac16572290c186778e5e2587",
    "fig12a-25-write": "0bfc2c19de1b866b8cdebf4add30445fc83dc0e77783d8c9ffe13e27b7273f09",
    "fig12a-9-read": "c25d744487007d6a1cf780afb43043a4562f310a46e873425a697a8706349e58",
    "fig12a-9-write": "dda6702a5d9e0d8e79281b1562253b44d8d4865ebed858d5b3fd0b8152d66456",
    "fig12b-read": "002497b760f732d7b587b7dc3af1beb1bbf6a9931672f8c67b6b9d555c40c133",
    "fig12b-write": "10c417d93de64d82642a528bf527fb303c199517752ac58f40202eb6b3aceeae",
    "fig13a-all": "b59f0aebbb0031f9ef87ab482cebf04feeb58e1ce60f9ad8833361db955ff1db",
    "fig13a-read": "36ede70217ca1f5014f49e07c6a6882fe1c7c12873e0d92cfeb4519dd4be3f6f",
    "fig13a-write": "eeb4869908f0aa7133dcac9a68a57c5fc7cae84847ec8560925e1a467b48c1d6",
    "fig13b-all": "aa25ec2cdcd4650af5d491c79b59eb1e40eb1a193c078175ddd31d22dd6061e8",
    "fig13b-read": "8d6b72279fb3267b0a00eea1d35312d35a4a55d18fd279f9e8524909802c1e5f",
    "fig13b-write": "cd2c49e89baf938c012187e75da7839bdd5df0111d2edff39969b3cd970163bc",
    "fig14-128-read": "639b758280262fa3e2aed1b1674d7fa314224ef3a4bdfd362fa7814be2947239",
    "fig14-128-write": "7922e4e9b17f0312fdf282883df97c2f537a837f5fdb349eafdfc8d8615629a7",
    "fig14-32-read": "3967a57ad666084858755dfee4cb31908bc8e2d82e57e08e3eac376215b5ce17",
    "fig14-32-write": "ec1d4b5adfc7736837dec57d71b03dd3dbf0a20c09ad2592992c87f06f94a4be",
    "fig14-8-read": "3cb1df0338ce57a9906b475d220ab0b002aefd3abe6a58a3ef587e44978732e8",
    "fig14-8-write": "c53551e45acfe17fa82110ef1d664a85b53584d9531c9d0e41554b88b48d5911",
    "hpio-cycle-read": "07805cf557ec85be39b456f01599fb08cfdd1bbc0880da3b938bd0b008c037b6",
    "hpio-cycle-write": "6e657a4f40b765ab453668819c3e5c1b8a88ca35b1bf8b6eb55da58e23fe82db",
    "hpio-spacing-read": "7d26b1b5b2e8da0796eebe58e0a4cf14e80a2fbfd1ec99de92ab00bcaafc080f",
    "hpio-spacing-write": "c81d3392fa6dabfdcf65add5660ab8380f1872eb7a1712270c2bf8e59eb8910b",
    "ior-disjoint-read": "db89a0cacc1a38ef7870baaff996b5a7ca5354b7ab6aeb4184358821f367d975",
    "ior-disjoint-write": "b3aa3d6d589501af2e8d6a4600222b3503b1b9cada3d599bb0000df5e2408e8f",
    "ior-in-order-read": "6f196da8a697db5b80c6a3e1ce307e44efeab8068158db8b0a8246e4a020de19",
    "ior-in-order-write": "8e8513d6898a35e31e9b30d8b043e0658e9e31058c5b9140cc720ac221637c05",
    "ior-mixed-read": "dbefa24a40eba3eb7f18e4d52b7e59bcb3109146a62f2b1b39e184cf0b38219a",
    "ior-mixed-write": "5ddb6a2a18cdc4c2958aade3c402d77a08486e242787edc8ebc3d2f03957fdc3",
    "ior-odd-procs-read": "0f90da9e9b05cfc33f238a15468a87a6dc4c7424fcbb601e434729dec85b871f",
    "ior-odd-procs-write": "207509e0872869bf4507cc7016972bb9917379a5d3285aaac3656d77ce98f469",
    "ior-seed3-read": "0a68f247a0ab8575c89914b2e8087d7ed5da2876dc5d3eea6a3556fbf758db23",
    "ior-seed3-write": "defa54fff4c462aa60feb2b3b9008c337430e06aa9899e07b8919075c99fd739",
    "ior-small-read": "f76323633e6008f5d6c14b7676cf689bc086d45f7408ebbe1e573933a7b68408",
    "ior-small-write": "883107b56b51da4490c9ab58ac5a08a5d0fa85f8548618846903d94d80c86be9",
    "ior-uniform-read": "56351e34e34359475ddd7447ce49b5830104733417f82abc4ba0942a31ea67ee",
    "ior-uniform-write": "df48d78906fbf9ba05b9b2250d09271a1d24f4c5e703d4057a3b9d2c5b88fc74",
    "lanl-1x2-read": "9398f70b965aee9f4159a8419725af946a2bba166391911a1c4ac859979f932e",
    "lanl-1x2-write": "39cdd8777093498cc3d5be593d87430b38b6edc6dedafa58e224bb7598d0b573",
    "lanl-2x2-read": "9ec4a16e318b32ed31aabfef0d1dc9ac905f1a962c01b562b885a49f372147da",
    "lanl-2x2-write": "ee5ba8f4a587478225a10657f6ed86ed368fce95ea67f36198aa03ffa7ddad19",
    "lu-1slab-all": "5581a87ba7079bdc1bd0e83c1f7886f92a4bff5d5f017b0c7487b83e68891459",
    "lu-1slab-read": "1d77373faa14a944b6053a6c8f3cd9a4af92432084f348a87ed7ef013155dc2b",
    "lu-1slab-write": "728ab4ad263004462a83aa838ea9ad7732f6aacb28bb72b71ab8aa526202973a",
    "lu-2x8-all": "00542bcf897f0465a9f2a8590d840a398530511fe2c2ef18241ca56709411d56",
    "lu-2x8-read": "950d575ae138e825c7c090e0f70219a770ceadc601ae7dea3b39bd039428d3ff",
    "lu-2x8-write": "4c6ec031caab349cd8879d5013b3c3b382cdf79e0e324ca8a72884ee83056034",
    "lu-4x6-all": "ea4cdca03fd3e36c48427c671cc316ca6ad3304d76780c1e76c274f0f71e548c",
    "lu-4x6-read": "0568e8fc3dbfc07960df5740b1e18c0a56b2c821a10109863312ec91f33cb394",
    "lu-4x6-write": "83c2d1c7ba6f16a02dc53df6dc945ce2e9b302a367d6f44c1c4795f15688e2b3",
    "online-a-all": "e3d6bf2c0134804f7863810bbab4c1b72749f933c3c0b4345bb1b8abcc524c8b",
    "online-a-read": "2031c428e2f424a9630f2f07dcbd3643b7b56e1b71dda586fbca66681e85fc3a",
    "online-a-write": "9f184de9b044d65de275cb1e064d7a5c7f09d68b9b067bf8d0a1cef90823a43b",
    "online-b-read": "4e206920f66fab42bc316a27ae74dee34903726e555e359b673142693cf26dec",
    "online-b-write": "70bcadfcc2ab98d89017defdcb4a4c776ddea622060b97fa599dd60c580643e7",
    "procs-2+4-read": "0d9666e4aade81b83a1dc5a336f462a2a30e20578f354a1bca8f8600f0b35b39",
    "procs-2+4-write": "1669397a28e8664712a785385fbc34071298aa2ba9067260f86b61e19d25fd0c",
    "procs-3+5-read": "59c6b9b2728792dee4d6ce12acb6d84004d21895f0977826066c392dc16a9752",
    "procs-3+5-write": "e5b6265c583616bba0ee6a3fd51901db51f3298a5c01d3dae86fc0e07fff34bb",
    "procs-4-read": "cbbe538e899457806893cb7a87e5ba58fdd13fc6277d22ca6533a220b26b4148",
    "procs-4-write": "4674f5ef91a8456def39d931ee8d252ceb480967c04c5d78496fab8ff8b2d577",
    "tenant-hot-read": "c448c91a905ccd6d886d6d71c8b7b8a9bfee54f2bda9e5acf5bee092e76d628a",
    "tenant-hot-write": "4734a12763b9bed10de1bcdfefbe24d1772061a475dd733adb49b65f984b2429",
    "tenant-tail-all": "7a3066f8147453c01db8da42efe3dd8937fa7294ba9e2291f549576c5d1abdfc",
    "tenant-tail-read": "99963338aad0ce89632758fe787b73182f0744c78bd18879cf4faad1ca089114",
    "tenant-tail-write": "5336c26641098efd01efb8d84d8b26e5b4375a055a7d5925604a317bbaaab964",
}


def test_trace_dtype_is_packed() -> None:
    assert TRACE_DTYPE.itemsize == sum(
        TRACE_DTYPE.fields[name][0].itemsize for name in TRACE_DTYPE.names
    )


def test_every_case_is_pinned() -> None:
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_is_pinned(case: str) -> None:
    assert digest(CASES[case]()) == PINS[case]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_op(name: str) -> None:
    workload = WORKLOADS[name]
    default = None if isinstance(workload, _FULL_DEFAULT) else "write"
    assert digest(workload.columnar()) == digest(workload.columnar(default))
    assert digest(as_columnar_trace(workload.trace())) == digest(
        workload.columnar(default)
    )
