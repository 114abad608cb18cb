"""Byte-for-byte pins of every CLI output format.

Each case runs one argument list under the default format and under
``--table``, ``--json`` and ``--csv``, and pins the sha256 of the JSON
encoding of ``[exit code, stdout, stderr]``.  The cases cover every
subcommand and branch, the error paths and argparse usage errors.
``COLUMNS`` is fixed because argparse wraps its usage line to the
terminal width.  The usage-error digests also pin argparse's wording,
which differs between Python versions; they were computed on Python 3.11.
"""

import hashlib
import json
import sys

import pytest

from sasakijoin import cli

FORMATS = ([], ["--table"], ["--json"], ["--csv"])


def outcome_digests(capsys, monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    out = []
    for fmt in FORMATS:
        code = cli.main(args.split() + fmt)
        captured = capsys.readouterr()
        blob = json.dumps([code, captured.out, captured.err])
        out.append(hashlib.sha256(blob.encode()).hexdigest())
    return out


# argument list -> digests under (default, --table, --json, --csv)
GOLDEN = {
    'invariants -p 1 -l1 1 -l2 19 -w 3,2': (
        "483ede0604a5cbf47f2c063135f1b267515e581b122cda5f72bf07fc9bc39170",
        "483ede0604a5cbf47f2c063135f1b267515e581b122cda5f72bf07fc9bc39170",
        "a8d7c6172201a1d18ba373bb6345da08a60c49640c20a7353a2d76d50431f019",
        "3700caa56ea776bda8e6e98250a43516fd7ed39b1d1115fcf8c49797d84b70da",
    ),
    'invariants -p 1 -l1 1 -l2 20 -w 1,1': (
        "b5c487cb90a11379975a665e2869369dc1c25d0c0fb09863f307e16f2ba5d601",
        "b5c487cb90a11379975a665e2869369dc1c25d0c0fb09863f307e16f2ba5d601",
        "db13a05d59d227917cec74171407f3090d8f1200eb072839c7547955750e98c8",
        "b01657e42c2520ebf61faaef95ba5283a64a667594867d9bb69bc65331fcac8e",
    ),
    'invariants -p 2 -l1 5 -l2 21 -w 1,1': (
        "16d2fe4835728bd84ae833f275e1ca0c586ae75fd8cdc23bf129a7ea97b6bb02",
        "16d2fe4835728bd84ae833f275e1ca0c586ae75fd8cdc23bf129a7ea97b6bb02",
        "c7ef93cc58eed12d7c4d7e853fb5b5e849173136e81f576e4e3701b4823a5014",
        "7a7030679d12f8b373186a2cf858f76ceedc57f0a8449ec6fd9bcb8c2ea60832",
    ),
    'invariants -p 2 -l1 1 -l2 21 -w 25,1': (
        "d97bfcb0c51337ec9de5ca919a80a1b9221b6c9fc9b8513a0aaf7ec02b43568b",
        "d97bfcb0c51337ec9de5ca919a80a1b9221b6c9fc9b8513a0aaf7ec02b43568b",
        "83af1b61ff2d0522d4dc28d2466255424730887f254da4145e5547cc3776be95",
        "9df6f58f3e3e1e0cafd967999839fa56d2b323e41d9dae6b8ab6212f5c008316",
    ),
    'invariants -p 3 -l1 2 -l2 5 -w 3,2': (
        "cf7bf7279c2336cf32465daf274743c4df2790035f8397c7e9d6b7a58ebc07c5",
        "cf7bf7279c2336cf32465daf274743c4df2790035f8397c7e9d6b7a58ebc07c5",
        "bf56673e17602123b452915c154520a69c9d98e63dee19f4f001513e7515e4ee",
        "9088c929a74d943982dbc6b0bc8c1f33dd4c9b5aed8169a4cbc9146060ddb753",
    ),
    'invariants -p 1 -l1 1 -l2 10 -w 3,2': (
        "d42028fb95bcb2dae10940499d0beef91fca50cdb2c9f88a50c6f9298b2b3de9",
        "d42028fb95bcb2dae10940499d0beef91fca50cdb2c9f88a50c6f9298b2b3de9",
        "d42028fb95bcb2dae10940499d0beef91fca50cdb2c9f88a50c6f9298b2b3de9",
        "d42028fb95bcb2dae10940499d0beef91fca50cdb2c9f88a50c6f9298b2b3de9",
    ),
    'invariants -p 2 -l1 1 -l2 3 -w 2,3': (
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
    ),
    'invariants -p 0 -l1 1 -l2 3 -w 1,1': (
        "392426f9ba0001789640d86d8a8ceb2dcc1f9a7b8ef46200b4667b7d9a4b54be",
        "392426f9ba0001789640d86d8a8ceb2dcc1f9a7b8ef46200b4667b7d9a4b54be",
        "392426f9ba0001789640d86d8a8ceb2dcc1f9a7b8ef46200b4667b7d9a4b54be",
        "392426f9ba0001789640d86d8a8ceb2dcc1f9a7b8ef46200b4667b7d9a4b54be",
    ),
    'invariants -p 2 -l1 1 -l2 3': (
        "678ff3f25cc3e622d4bcbcfc8d898f3c20ef2f91b0bc96897ae9852cae47a396",
        "678ff3f25cc3e622d4bcbcfc8d898f3c20ef2f91b0bc96897ae9852cae47a396",
        "678ff3f25cc3e622d4bcbcfc8d898f3c20ef2f91b0bc96897ae9852cae47a396",
        "678ff3f25cc3e622d4bcbcfc8d898f3c20ef2f91b0bc96897ae9852cae47a396",
    ),
    'invariants -p 2 -l1 1 -l2 3 -w 3': (
        "cc828030cd11ac3575aec16ce27242b07419e45ed4492e0acd20bb932a1ceee9",
        "cc828030cd11ac3575aec16ce27242b07419e45ed4492e0acd20bb932a1ceee9",
        "cc828030cd11ac3575aec16ce27242b07419e45ed4492e0acd20bb932a1ceee9",
        "cc828030cd11ac3575aec16ce27242b07419e45ed4492e0acd20bb932a1ceee9",
    ),
    'invariants -p 2 -l1 1 -l2 3 -w a,b': (
        "24c1e82187c2512f2b8d61a4ddb56759cd1f700f9a546f9b5c02dc65c121ff5c",
        "24c1e82187c2512f2b8d61a4ddb56759cd1f700f9a546f9b5c02dc65c121ff5c",
        "24c1e82187c2512f2b8d61a4ddb56759cd1f700f9a546f9b5c02dc65c121ff5c",
        "24c1e82187c2512f2b8d61a4ddb56759cd1f700f9a546f9b5c02dc65c121ff5c",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 3,2': (
        "0d106f304174fb5c27088b39c904feb8e3572e01e43a9fcac9b2053074a68040",
        "0d106f304174fb5c27088b39c904feb8e3572e01e43a9fcac9b2053074a68040",
        "5607f6f0ed38dcef9b2775584836af3d38302f234377ba6e03749e41906bf75c",
        "c228a02864005985457552d218c83140a043966f4be804e3117c2747db3de637",
    ),
    'csc -p 1 -l1 1 -l2 23 -w 3,2 --precision 20': (
        "d0166c555ef500eaf107306064d35a4d00d92ccc8bbdc8625db3c04157976165",
        "d0166c555ef500eaf107306064d35a4d00d92ccc8bbdc8625db3c04157976165",
        "5ad72e5dadb1975d2a0b39ea9b06c56eb16c613d58de3147231baf3a5060e786",
        "0a20d8907c84bd763df90ca18a933b404722b2da72ba60ae8596215e3e367125",
    ),
    'csc -p 1 -l1 2 -l2 11 -w 1,1': (
        "be46bfc4b0a0f71d84dc0a8a59e28482e2ab32f029b7ebfc87c4898f953d2050",
        "be46bfc4b0a0f71d84dc0a8a59e28482e2ab32f029b7ebfc87c4898f953d2050",
        "f500bcc9b870bb51fc62f5db77d7b3f699ba77e27272c34cf4ba5b3a803a4d58",
        "20f664e39c72d0f2d8beea934f1459432f8463a025ee13020593873d54e387e8",
    ),
    'csc -p 2 -l1 1 -l2 2 -w 1,1': (
        "c86d9d6010762ac84d73556ca822e949747c1b76971d09b078d18b4fc4e5b632",
        "c86d9d6010762ac84d73556ca822e949747c1b76971d09b078d18b4fc4e5b632",
        "331b9a050a3464b5c995ae3fb2a65dddc56cad3e2349d800292ac15a67e21603",
        "de61632a4681ae5daaea2918081563f0fda379b6a21c3b2b77094456b71c1192",
    ),
    'csc -p 2 -l1 1 -l2 2 -w 1,1 --quote-caveat': (
        "c86d9d6010762ac84d73556ca822e949747c1b76971d09b078d18b4fc4e5b632",
        "c86d9d6010762ac84d73556ca822e949747c1b76971d09b078d18b4fc4e5b632",
        "120ed9d341257c999da9cbb8c839c990ead36254a7944afa00f8a90d371d4009",
        "9bd2d2735c710190de2b79163cb0afa975a72198f6b6bbb7c088e484d23c7157",
    ),
    'csc -p 2 -l1 1 -l2 2 -w 1,1 --no-quote-caveat': (
        "1a36b1f0836d20d1545d01dd3524bab8ed6cabf1ff64b35a4bfbe6d159cb19fe",
        "1a36b1f0836d20d1545d01dd3524bab8ed6cabf1ff64b35a4bfbe6d159cb19fe",
        "331b9a050a3464b5c995ae3fb2a65dddc56cad3e2349d800292ac15a67e21603",
        "de61632a4681ae5daaea2918081563f0fda379b6a21c3b2b77094456b71c1192",
    ),
    'csc -p 2 -l1 1 -l2 25 -w 1,1 --precision 3 --quote-caveat': (
        "7eeea417f0f4fd0a49f626b8a2e0e5ff5847e04ed5eefe4fc1e5e07fa521fd32",
        "7eeea417f0f4fd0a49f626b8a2e0e5ff5847e04ed5eefe4fc1e5e07fa521fd32",
        "c5680310aff46fd198b15492e264c1afa947c6eb8ec77a951374372ea370c193",
        "33e5b168be94af8fcaff30c4abcd52fafe184e4fb76466b455abdefd3f47430d",
    ),
    'csc -p 2 -l1 1 -l2 25 -w 1,1 --precision 1 --no-quote-caveat': (
        "87c1fb8d56f90bc5989ce6c849e09018e2dfac2efa04fa8b04401ef0bd029cfd",
        "87c1fb8d56f90bc5989ce6c849e09018e2dfac2efa04fa8b04401ef0bd029cfd",
        "155444c563293f3ba80aba908f93a8a5f8950a8b7d1862b00f880829ea228c66",
        "f67a09b69f154b1c0e00dbcebca2ced7c7a139989ba9c2bc2b1ef5ce06b99db5",
    ),
    'csc -p 3 -l1 2 -l2 7 -w 5,3': (
        "ba38c890212cfc654d263b90bd9fd63c0644db5e6dd5a408aa502f5b629a48a8",
        "ba38c890212cfc654d263b90bd9fd63c0644db5e6dd5a408aa502f5b629a48a8",
        "868a668cbaf3118136b49b463948c9eac0e66744254ea64851ab8b67c64dd59b",
        "460f4f1df4f797882a0bd527f6d9410e4e3bd13b2536498ccc1210b852bdadbe",
    ),
    'csc -p 1 -l1 1 -l2 18 -w 3,2': (
        "8171aeb7e207cd7d27cc42f4512ffe4755436b3327a40714914763a0731370fa",
        "8171aeb7e207cd7d27cc42f4512ffe4755436b3327a40714914763a0731370fa",
        "8171aeb7e207cd7d27cc42f4512ffe4755436b3327a40714914763a0731370fa",
        "8171aeb7e207cd7d27cc42f4512ffe4755436b3327a40714914763a0731370fa",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 2,3': (
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
        "16dcb705a37557af6364fb3483709fd24495253b1ad84eb8c9b9f0f9153d8fa0",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 4,2': (
        "8a215f01dd16e1b4d7ada915b92857d3689ebf12a36b38a51cd84618734e90f8",
        "8a215f01dd16e1b4d7ada915b92857d3689ebf12a36b38a51cd84618734e90f8",
        "8a215f01dd16e1b4d7ada915b92857d3689ebf12a36b38a51cd84618734e90f8",
        "8a215f01dd16e1b4d7ada915b92857d3689ebf12a36b38a51cd84618734e90f8",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 3,2 --precision 0': (
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 3,2 --precision 1001': (
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
        "1207ba546fa2023b5870df053b20a5e66202b81f9a92c40226d8cb98350b866f",
    ),
    'csc -p 1 -l1 1 -w 3,2': (
        "ff8162d84406c1102fd1e998aa5fff6f83a313b137a77a05f3d25dc8cf9058e5",
        "ff8162d84406c1102fd1e998aa5fff6f83a313b137a77a05f3d25dc8cf9058e5",
        "ff8162d84406c1102fd1e998aa5fff6f83a313b137a77a05f3d25dc8cf9058e5",
        "ff8162d84406c1102fd1e998aa5fff6f83a313b137a77a05f3d25dc8cf9058e5",
    ),
    'classify homotopy 5,21,1,1 5,29,1,1': (
        "301e5feea3a39dc5c014704df53117fb3c2104d31fb4f3f5c25c2fddb3ea7cc9",
        "301e5feea3a39dc5c014704df53117fb3c2104d31fb4f3f5c25c2fddb3ea7cc9",
        "87de9c73cef39d160af5b21e3f962a80f733b0438d027c9335037d9a2ce6943d",
        "2b576660b54e146eaca703242618c063be5f1b688fb3edb5dc2d45ed250e5e35",
    ),
    'classify homotopy (5,21,1,1) (1,21,25,1)': (
        "49ef964001f37fa36d1491e4669cdf4a4fb9f0316ff80b46731296fe1c84d3be",
        "49ef964001f37fa36d1491e4669cdf4a4fb9f0316ff80b46731296fe1c84d3be",
        "dbb8fda5db1266152b0b740bccf5e54619c1ee86f8285c97483b86e23bb3a650",
        "bf7040bc9840a9f965d50ddd70cbee214ac1f955e7684d780d64096ddbce7bdb",
    ),
    'classify homotopy 4,21,1,1 4,29,1,1': (
        "4e24fc64d7ea8e2885a7ffc4ea42bd03e64efac134c2679add9d334feeabdac1",
        "4e24fc64d7ea8e2885a7ffc4ea42bd03e64efac134c2679add9d334feeabdac1",
        "4e24fc64d7ea8e2885a7ffc4ea42bd03e64efac134c2679add9d334feeabdac1",
        "4e24fc64d7ea8e2885a7ffc4ea42bd03e64efac134c2679add9d334feeabdac1",
    ),
    'classify homotopy 5,21,1,1': (
        "159b2a168e8dd3296609c0968328edc2cfd06e5c8bbb9c9d023c1be61ab2922d",
        "159b2a168e8dd3296609c0968328edc2cfd06e5c8bbb9c9d023c1be61ab2922d",
        "159b2a168e8dd3296609c0968328edc2cfd06e5c8bbb9c9d023c1be61ab2922d",
        "159b2a168e8dd3296609c0968328edc2cfd06e5c8bbb9c9d023c1be61ab2922d",
    ),
    'classify homotopy 5,21,1': (
        "2363b600bdee2efc38931464ddba1245fcacd3c3f4e7a33ce56ef1f9183002f1",
        "2363b600bdee2efc38931464ddba1245fcacd3c3f4e7a33ce56ef1f9183002f1",
        "2363b600bdee2efc38931464ddba1245fcacd3c3f4e7a33ce56ef1f9183002f1",
        "2363b600bdee2efc38931464ddba1245fcacd3c3f4e7a33ce56ef1f9183002f1",
    ),
    'classify homeo -l1 5 -l2 39 -l2p 89': (
        "59c75768132cc007ca04b54d87a0fc5f9ed22d1a3bc64e7c0b006cc6a0df7e9a",
        "59c75768132cc007ca04b54d87a0fc5f9ed22d1a3bc64e7c0b006cc6a0df7e9a",
        "ff5e531612dee4cc2bbbee8cab076b5395dc98c1b17a458e926070d69c38834a",
        "8c6ed7bb31b6875e3aab6eee206ec0f9dd3dce6a50941a1d79f7ebf8584f5e33",
    ),
    'classify diffeo -l1 5 -l2 39 -l2p 89': (
        "ae03b8f84ac873b6da80dfbd4429073e5fc98b0ab31a14005df56f67444e5050",
        "ae03b8f84ac873b6da80dfbd4429073e5fc98b0ab31a14005df56f67444e5050",
        "b144900f90a907a8efce77ec4a6d21d9f89edb82f160f9764436192c190fd0ba",
        "58430691ad1d2a6ef3ed184df6eb5462f48aac6f85234fde9cbbb7e0f64fc992",
    ),
    'classify diffeo -l1 5 -l2 39 -l2p 139': (
        "c6d3c0819b0ad193e6c0c01c91820574ddfacaaae3e84d2d3ac473b9fdcff256",
        "c6d3c0819b0ad193e6c0c01c91820574ddfacaaae3e84d2d3ac473b9fdcff256",
        "e8d4de9e17c98b8bce9a5565191337864e7d518b5f92ef9c27eb77772bd728ec",
        "4bb8509407ca366076565c2d4f29f53a17b238d0c34ade59de52f6e60e063f50",
    ),
    'classify homeo -l1 2 -l2 3 -l2p 7': (
        "efbc7d41d75aec8bf68fed89dd8734ad4c0083adcd9ccf1a16c5e15f3b017634",
        "efbc7d41d75aec8bf68fed89dd8734ad4c0083adcd9ccf1a16c5e15f3b017634",
        "78b73609f83cbe9d0e26ef7ba201c706bf021905665b069facb3e69dba394c3f",
        "f70c1c92f613a01f684484c2585d094d43b5716dd839886b1e10436cc991665e",
    ),
    'classify diffeo -l1 5': (
        "9ce76191c825f9a71ed1df01f3f1f673a5e93a858f2e026233433365cd066411",
        "9ce76191c825f9a71ed1df01f3f1f673a5e93a858f2e026233433365cd066411",
        "9ce76191c825f9a71ed1df01f3f1f673a5e93a858f2e026233433365cd066411",
        "9ce76191c825f9a71ed1df01f3f1f673a5e93a858f2e026233433365cd066411",
    ),
    'classify homeo -l1 0 -l2 3 -l2p 5': (
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
    ),
    'classify homeo -l2 3 -l2p 5': (
        "d541c74c212a3a07d14f3e559b95836a987716021cff047d35a146a49b398e75",
        "d541c74c212a3a07d14f3e559b95836a987716021cff047d35a146a49b398e75",
        "d541c74c212a3a07d14f3e559b95836a987716021cff047d35a146a49b398e75",
        "d541c74c212a3a07d14f3e559b95836a987716021cff047d35a146a49b398e75",
    ),
    'classify isotopy -l1 5 -l2 39 -l2p 89': (
        "b2a2b7132e7e56c73ff936aa1407d020a29e5e1deb549cd474526803b28183fb",
        "b2a2b7132e7e56c73ff936aa1407d020a29e5e1deb549cd474526803b28183fb",
        "b2a2b7132e7e56c73ff936aa1407d020a29e5e1deb549cd474526803b28183fb",
        "b2a2b7132e7e56c73ff936aa1407d020a29e5e1deb549cd474526803b28183fb",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..30': (
        "4f4ff71464ad7f966744e42017e9ccbe6fb93e67d657ea6d9c735b9cc4ca739b",
        "4f4ff71464ad7f966744e42017e9ccbe6fb93e67d657ea6d9c735b9cc4ca739b",
        "62a4652a9b70869a07079faca6826ed6c32e00c826bcbaddadc48e98c3663f7a",
        "3f4078008230b0950b62c27f7d50ee7e0b587a0ae074df483054cdda0fc1ae76",
    ),
    'sweep csc -p 2 -l1 1 -w 1,1 --bound 10': (
        "e157fde2a183863354f34de3047f4ba8a1e1bedacbd452bc712e690f8109c6f6",
        "e157fde2a183863354f34de3047f4ba8a1e1bedacbd452bc712e690f8109c6f6",
        "1001deb67ba96accc62648ec62385fb033c759dbca744665566207f19b8fef02",
        "ce84085c71a61cb93a01f813a332e6e3f82abee20609ac57f4b026353ea98162",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..30:odd': (
        "b5c907cdd3d786d6742399b1d5d30800d7c8d54e7bd3fe82e6057049e7dfad98",
        "b5c907cdd3d786d6742399b1d5d30800d7c8d54e7bd3fe82e6057049e7dfad98",
        "cdc576f824088b8106c9270a4bce8a31abb0beaf15d6c6ee56f815f151bb8466",
        "0b02add7c7e1f9f2d6762340afef98409908c8cf668b16aa430d013dbc9204aa",
    ),
    'sweep csc -p 1 -l1 1 -w 1,1 --l2 2..12:even': (
        "30ae2bacb4b110db1ad3dab5c02b485e1f7da796aab36df8dc85fe2262b6e0e7",
        "30ae2bacb4b110db1ad3dab5c02b485e1f7da796aab36df8dc85fe2262b6e0e7",
        "b99a23cd227da6bff72b5caf4809f6a699eb3d9263821c4918f902e56b7259de",
        "1fcda341b40d32e03ca80c1680c1a249bb654508f318d2995ba06637b787a7eb",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..5': (
        "b7a8a293082eae8bcce248765de19315e332bc9999ef05d173e5ed95235d1203",
        "b7a8a293082eae8bcce248765de19315e332bc9999ef05d173e5ed95235d1203",
        "5362f9959e485be6c5a427998db3cfbd477d78f7cbc102cb4b46048053251636",
        "2817a9d788b29a0fa36c0cf0448adb372b390ea58b4f1beb854cf6e51c5e77c5",
    ),
    'sweep csc -p 1 -l1 3 -w 1,1 --l2 5..5 --precision 30': (
        "a1ba7227792360364d7cec73fe7f6d5a75fff5c5dd7429ae3d5828c32979c3ce",
        "a1ba7227792360364d7cec73fe7f6d5a75fff5c5dd7429ae3d5828c32979c3ce",
        "26123d59b401b73cadfa41fbd95bec884a0e8e68353075987816e4b5a6b6b40b",
        "da8e77a446dffb05a9e919a7060d69ca4cb8bb58c3aced7f963a3a9b2fc8f88e",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2': (
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..5 --bound 5': (
        "aa4e78dc763df183b85a75e0621cda4b7f027abede8677e1270a9dc45bbfa7f4",
        "aa4e78dc763df183b85a75e0621cda4b7f027abede8677e1270a9dc45bbfa7f4",
        "aa4e78dc763df183b85a75e0621cda4b7f027abede8677e1270a9dc45bbfa7f4",
        "aa4e78dc763df183b85a75e0621cda4b7f027abede8677e1270a9dc45bbfa7f4",
    ),
    'sweep csc -p 1 -w 3,2 --l2 1..5': (
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
    ),
    'sweep csc -l1 1 -w 3,2 --l2 1..5': (
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
    ),
    'sweep csc -p 1 -l1 1 --l2 1..5': (
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
        "3d7e252caa0d0ec6e877539d2d29cea8f7188fc5e51807ac68ccb83af36cb1a3",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --bound 0': (
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
        "35e211f0c2e4ae569dc24df1e385a432debb257ff6e2a418a3a4f875c0687526",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 5..1': (
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 0..4': (
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
        "c1aff6f55654f0c4929ef717c4c3be0cdc7a449018b0ce9c5169ee14388e200c",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..5:prime': (
        "b6f5a72e4894471f85724d6b5267a67be060df5580d43b801cfc7ab34a9c2b93",
        "b6f5a72e4894471f85724d6b5267a67be060df5580d43b801cfc7ab34a9c2b93",
        "b6f5a72e4894471f85724d6b5267a67be060df5580d43b801cfc7ab34a9c2b93",
        "b6f5a72e4894471f85724d6b5267a67be060df5580d43b801cfc7ab34a9c2b93",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1-5': (
        "85ad3b6737545b3f8688824e4f40e38d963a134214c3fd8f92f93be6381111c4",
        "85ad3b6737545b3f8688824e4f40e38d963a134214c3fd8f92f93be6381111c4",
        "85ad3b6737545b3f8688824e4f40e38d963a134214c3fd8f92f93be6381111c4",
        "85ad3b6737545b3f8688824e4f40e38d963a134214c3fd8f92f93be6381111c4",
    ),
    'sweep csc -p 1 -l1 1 -w 3,2 --l2 1..x': (
        "b6ba9c4146d145df1724b7c68e7669ae76c778a50406aadd7d093dd3cace6503",
        "b6ba9c4146d145df1724b7c68e7669ae76c778a50406aadd7d093dd3cace6503",
        "b6ba9c4146d145df1724b7c68e7669ae76c778a50406aadd7d093dd3cace6503",
        "b6ba9c4146d145df1724b7c68e7669ae76c778a50406aadd7d093dd3cace6503",
    ),
    'sweep diffeo -l1 2 --l2 1..9:odd': (
        "ef489a93cf1c4c14554e5e1557c70058746452ed843ed02519c56f7fa7398e78",
        "ef489a93cf1c4c14554e5e1557c70058746452ed843ed02519c56f7fa7398e78",
        "5514d4dc9b4b3105ee66acb34ca794656173a63e5e36e821a3c4de411bca81de",
        "374c2a7e4da20d0ff99ed4fedcb2afd9a866a762d1708a659c4e0d310966b9d0",
    ),
    'sweep diffeo -l1 5 --l2 1..40': (
        "cbfe689f6f89f35735aa2ea910437538b4a7dbc4251e3fd2d2e37566b5492e9f",
        "cbfe689f6f89f35735aa2ea910437538b4a7dbc4251e3fd2d2e37566b5492e9f",
        "811940becc64ce203190bf4c8a82cc4fec03f3d39023fc3efc3cf19d699d2996",
        "40ce60d1591752fad6197751e7b837759889e69036e9619ff507ae0469870051",
    ),
    'sweep diffeo -l1 3 --l2 2..20:even -p 2 -w 1,1': (
        "4455aee409654ff01d615916637ed69c9c77d4d1477b81477c6078ca3a87198d",
        "4455aee409654ff01d615916637ed69c9c77d4d1477b81477c6078ca3a87198d",
        "1dda153cbf59b8b3cf0375af4682f6d407cac1f9565d0077eb73ca06429ace96",
        "ec2b3128d2ee26f52d34f20f1bc8c8dbdcdb29b55b042dadf050268227567410",
    ),
    'sweep diffeo --l2 1..5': (
        "c3409e88f02de091343a4ad5a64a559f32a9acb35cfd2e3874cfac8092cd4d5f",
        "c3409e88f02de091343a4ad5a64a559f32a9acb35cfd2e3874cfac8092cd4d5f",
        "c3409e88f02de091343a4ad5a64a559f32a9acb35cfd2e3874cfac8092cd4d5f",
        "c3409e88f02de091343a4ad5a64a559f32a9acb35cfd2e3874cfac8092cd4d5f",
    ),
    'sweep diffeo -l1 0 --l2 1..5': (
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
        "72251e6b6e4f5e228bae77db7aebcdbfd9768eaac3b271f361daef07d3c070d6",
    ),
    'sweep diffeo -l1 2': (
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
    ),
    'sweep diffeo -l1 2 --bound 10': (
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
        "c666da633d829433a179b2fca0cf23718b6c5f42327d61d3224f84a2af7ae5b0",
    ),
    '': (
        "18a700da71be0fb15ff260b69e23f736f76ebc69b30af160ff24106ea10453b9",
        "18a700da71be0fb15ff260b69e23f736f76ebc69b30af160ff24106ea10453b9",
        "18a700da71be0fb15ff260b69e23f736f76ebc69b30af160ff24106ea10453b9",
        "18a700da71be0fb15ff260b69e23f736f76ebc69b30af160ff24106ea10453b9",
    ),
    'bogus': (
        "2b819c6a2f29a2e17c23786f0d3b30c57fc1b9934f4ec77d51d41d07553cd267",
        "2b819c6a2f29a2e17c23786f0d3b30c57fc1b9934f4ec77d51d41d07553cd267",
        "2b819c6a2f29a2e17c23786f0d3b30c57fc1b9934f4ec77d51d41d07553cd267",
        "2b819c6a2f29a2e17c23786f0d3b30c57fc1b9934f4ec77d51d41d07553cd267",
    ),
    'invariants --bogus': (
        "082849a485f817bec86fd719f3d686a8c6e659af39242869ef323ba418fb4905",
        "082849a485f817bec86fd719f3d686a8c6e659af39242869ef323ba418fb4905",
        "082849a485f817bec86fd719f3d686a8c6e659af39242869ef323ba418fb4905",
        "082849a485f817bec86fd719f3d686a8c6e659af39242869ef323ba418fb4905",
    ),
    'sweep': (
        "5bcd25ec0ccdb5891096e1af24e01bb4380c5609072c38c62e43b5c07c40519d",
        "5bcd25ec0ccdb5891096e1af24e01bb4380c5609072c38c62e43b5c07c40519d",
        "5bcd25ec0ccdb5891096e1af24e01bb4380c5609072c38c62e43b5c07c40519d",
        "5bcd25ec0ccdb5891096e1af24e01bb4380c5609072c38c62e43b5c07c40519d",
    ),
    'sweep other -l1 2 --l2 1..5': (
        "18bf73701574314541f03703dfae279568280690cce1a625f9a450999c28b4a9",
        "18bf73701574314541f03703dfae279568280690cce1a625f9a450999c28b4a9",
        "18bf73701574314541f03703dfae279568280690cce1a625f9a450999c28b4a9",
        "18bf73701574314541f03703dfae279568280690cce1a625f9a450999c28b4a9",
    ),
    'csc -p 1 -l1 1 -l2 19 -w 3,2 --json': (
        "5607f6f0ed38dcef9b2775584836af3d38302f234377ba6e03749e41906bf75c",
        "cf46dbbc321f131279f9a234ceaead521ebd897e2eff594078d525331af55a43",
        "5607f6f0ed38dcef9b2775584836af3d38302f234377ba6e03749e41906bf75c",
        "e1db8038f4b3fa1a5c87c1e30690278246c959e3e8d2bbc1f77ee5adfcc6d473",
    ),
}

# Deliberate departures from the earlier CLI, which exited 2 with an
# internal error on a negative --bound, and exited 0 with every row invalid
# when p, l1 or the weights broke a rule that holds for no l2.  Both are
# invalid input now, as in the csc command.  So is a range with more values
# than len() counts: sweep diffeo exited 2 with an OverflowError, and sweep
# csc built rows until it was killed.  And sweep diffeo echoed a --bound
# that it ignored.  Its --csv prints neither modulus, and exited 0 where
# they have more digits than str() prints; every format refuses it now.
CORRECTED = {
    "sweep diffeo -l1 2 --l2 1..5 --bound 9":
        "error [no --bound]: --bound is for sweep csc; sweep diffeo takes --l2\n",
    "sweep diffeo -l1 7 --l2 1..100000000000000000000":
        "error [at most 9223372036854775807 values]: "
        "the l2 range has more than 9223372036854775807 values\n",
    "sweep csc -p 2 -l1 1 -w 3,2 --l2 1..100000000000000000000":
        "error [at most 9223372036854775807 values]: "
        "the l2 range has more than 9223372036854775807 values\n",
    "sweep csc -p 2 -l1 1 -w 3,2 --bound 9223372036854775808":
        "error [at most 9223372036854775807 values]: "
        "the l2 range has more than 9223372036854775807 values\n",
    "sweep csc -p 1 -l1 1 -w 3,2 --bound -3":
        "error [nonempty range]: sweep csc needs --l2 A..B or --bound N\n",
    "sweep csc -p 1 -l1 1 -w 2,3 --l2 1..3":
        "error [w1 >= w2]: weights must satisfy w1 >= w2, got (2,3)\n",
    "sweep csc -p 1 -l1 1 -w 4,2 --bound 3":
        "error [gcd(w1,w2) = 1]: gcd(w1,w2) = 2 != 1\n",
    "sweep csc -p 0 -l1 1 -w 3,2 --l2 1..3":
        "error [p >= 1]: p must be a positive integer, got 0\n",
    f"sweep diffeo -l1 1{'0' * 2200}1 --l2 1..5":
        f"error [integers of at most {sys.get_int_max_str_digits()} digits]: the report "
        f"would print an integer of more than {sys.get_int_max_str_digits()} digits\n",
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_output_matches_pinned_bytes(capsys, monkeypatch, args):
    assert outcome_digests(capsys, monkeypatch, args) == list(GOLDEN[args])



@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_table_renders_the_json_payload_alone(capsys, args):
    # the --table bytes are the renderer applied to the payload --json
    # prints, then its warnings; a failed --table run prints nothing
    argv = args.split()
    code = cli.main(argv + ["--table"])
    table = capsys.readouterr().out
    if code != 0:
        assert table == ""
        return
    # --table quotes the caveat unless told not to, --json only when told to
    caveat = [] if "quote-caveat" in args else ["--quote-caveat"]
    assert cli.main(argv + ["--json"] + caveat) == 0
    report = json.loads(capsys.readouterr().out)
    request = report["request"]
    command = request["subcommand"]
    if command == "sweep":
        command += " " + request["target"]
    render = cli._COMMANDS[command][1]
    lines = [*render(report["payload"]), *(f"warning: {w}" for w in report["warnings"])]
    assert "".join(line + "\n" for line in lines) == table


@pytest.mark.parametrize("args", sorted(CORRECTED))
def test_sweep_rejects_input_invalid_for_every_l2(capsys, args):
    for fmt in FORMATS:
        assert cli.main(args.split() + fmt) == 1
        assert capsys.readouterr() == ("", CORRECTED[args])
