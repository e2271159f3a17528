"""Behaviour golden: pinned report and tx-log digests for fixed inputs.

The per-seed values were produced by the engine before next-event time
advance existed, when every empty block was built one by one; the two
aggregate pins by the engine that still had ``SessionRequest``.  A refactor
or a speed change must reproduce them byte for byte; a pin may change only
in a change that alters behaviour on purpose and says so.
"""

import contextlib
import hashlib
import io
import json

import pytest

from escrowsim.cli import main
from escrowsim.scenario import run_scenario
from escrowsim.script import generate_random_script, parse_scenario

# generator seed -> (sha256 of the report JSON text, tx_digest); the trailing
# comment names the grid: D deterministic 15 s, J jittered
GENERATOR_SEEDS = {
    0: ("e34e1b6affe0d24506adcbe089bbf47e719486359c2fcf12f40277caaec43393", "47363853c9fa24e908e429d8df23ba9111d7a8f509678f989e68b685d5a6dd0f"),  # D
    1: ("dde7b36ce8e877de3d3e5e79e2bc87b68480102f81c1bbe1ee486b6049200fe7", "bc4b34ddc341a4e336a5bb31c05468c4a7a4ec7be25daa69953c512b1066e14a"),  # J
    2: ("3a134774365a0c88dde64fb694b17bcc9b867343ad19596aa9fa9a0550e068d6", "a114edede7774c26814adce830cec224112fca000c9495e0f566605556afe47d"),  # D
    3: ("1c33c79428a1a051522e163ef892cbcb6f72be4ddb91956f544c613e52741b0e", "ba64bbacfdaee06aecaa7e9d26624e4a705edadf22d6cac9fde2487d0b786fff"),  # J
    4: ("9760bd0d35ae746ba1cd812df52d82c6fb25e00936e2a6e854fda0cefa3dcd90", "a73e637f2f72b5d23fea2bda4511a4d0e1c85302f8af5479a2bf50c6ecb1853d"),  # J
    5: ("d396fc1d09acba97ac233115a786a680e7f8f3e263e078dfe9a11a43ec976a83", "b1e104699979be3cb288656cb266a557129c036c2fbc0d04d4f01ea284eca597"),  # D
    6: ("af1da97886cdd9ed5bcd97fad0abad6bc3b473c1404671bc332fc8a91a32eb9a", "932ee884527bdc1f51ceaf58095ecbc6f3cdaf5a578950a86f2e69a993969a98"),  # D
    7: ("cbaab32eece65637b942b0b317aa49f96e010f7b78c1fe5c99bad0d6a87f228a", "298f47cfd7720e11977b9f634c071241a6d2d0d0a1651f17804339cc4f121fc4"),  # J
    8: ("06e4e21d2db67188716a0bb616d939403ec5385c21ecd99ab169a361115a7133", "5200e6796320216dcd3e14aa35c9af4c8c0262ae06f71f1e76673e1f8c452c5a"),  # J
    9: ("0a03918a540e4c9295327ed8f0bc084c1d7222e9be00d189fa6d900c6e0ad830", "218c88eb3926cc49dbb69ee1c4deb03a87ef3afde78268e9bed3eb7fbce47427"),  # D
    10: ("4ef9c27cac2772253aeb76bec36292641fb946a1821958df6d61dfc2ab23e4dd", "bebb965ad8dfd316d7a3eb482e5988cc405a6cae6456934d076c9534e58f3b96"),  # D
    11: ("8f7f7f0feaa14b97ac76a747052b03734edad0980c4652f640fd3de8dd0bfca7", "ab6431714f598a70fe23f2c70f35f01b1182d807a0c67cd57686ae4ab1f85106"),  # D
    12: ("1a6e89a56c9a53561a017b8acfce3e5daab59b1b04bfcd852158fc17354303ad", "048f03060910062277d1790ba08cdfc8f8fe7a03b8a62d202f61d77d50140521"),  # J
    13: ("0c6a61e0a15baa4336dd0afd189ea5ecd7106ac59453e8ea326b0d78fffbc48c", "4a159ea097c074401aecf283ee32115b83521bd575861309b375dc6738eabc5e"),  # J
    14: ("174bafe36fc9bfa655cc0208d0f022f1bfa65ce58a1ff880c13a7e15ad600eb0", "45de803d5cea2be2e1e292a31b802343b4acfffe003f8beda13940f643fafa10"),  # J
    15: ("6f88bee834078dc9af8c6519711463d8ca1f3c1fe045c9a789f7952ed3ac7ca7", "51517eed25f5b8ed19ce1222c004181c4d70780c6f831a958311616add6eae23"),  # J
    16: ("bf2f0f362c5242ca54ddc557a4d45fb00e268edadab8dbd580debec86a772074", "a3fcfc1906f144aca7d665c40a7e3d7793d2a613369c6c2a6df67e3449977c40"),  # J
    17: ("4a13f3bb51208f0c9f0e5c1eab70ecf0da7f566617c9779fca23dcc1cacef281", "a1e28cbb16ab469fcb4bececb99a08df9164e07dcc42ae3fb2e9d47b9294ed4a"),  # J
    18: ("907ff3842e311880308e08566c973ae2040ea1ed74d38ac6b5256c9d88538920", "5eb6a8cfec8e084cc158e338c1da6d6359dedc1fd6093933490cf47d5947e0a3"),  # J
    19: ("8c707ed9cefe05e1c90f9b5906fbf05a74bfc6675c212d24af2ddd98d3becbef", "dfaccd40e8d8aef23a5e3f12f1eb4411669cbf768e16304bfc5ebfec89fcebdd"),  # D
    20: ("c2018fbec693c0430f14038e3c127140c5d51876ef71e7eba6914f8551ae69b6", "e008174ff54b5e65f203276da65d9b2c44808b115da810b9b3c4cdc6c292fad0"),  # J
    21: ("38cd9c78bf89b8faabf4f90565674c3e10c18bb8c34e7ab846683fabcda001b9", "67682c885c7b965d0ea2ef6d3a0715ff6869503c31a2cf16e908f7522d96ef58"),  # D
    22: ("3f5a85f87ce23cdb48ac85cac7cc5e353d6a63e8e5a6db0203ac58c27b269d6e", "1eac6dc2abd3fbda66fdc7842fc6bbee6d1c1a447a4475808cc97c3179fe12c3"),  # D
    23: ("6a2d12417a82d6c72e72c3123ddc57a30665054f103b727abaa2ab6ded8596c8", "f5ddc2607425d0ae2d8735a7cb76cfa65e36ad37bd7e0c1a6dbf36785478157f"),  # J
    24: ("89b311dd80ed4b9481ff27b10550a43be0be32c7e683a5d777611eaf0c775f32", "78475cdc8b940182d7a0ee7693243c299d3e2657b6414b28109246889de019be"),  # J
    25: ("a5b2d5975e12530025435dc5c90d13e10aeb1fd1a4fdda0fabfaae959d789146", "753769bd09820111e6f91b3054ffb085dbcf6e26f2bb1211e3526d986b1d0ae0"),  # D
    26: ("625bff767422164f4079fb6f0a4e0c3b620da3e8b2f5a50fd42fe80996786429", "36f8068efea5211868d2f13c40438de3230c36300a7952d86deecfbf7f850e75"),  # D
    27: ("47f97306a64c98af2fa151f1654e5304dd65b2187fd279378105d55820abdf7b", "c452c3fc803f4f666b1f8f5fddda79e19d25fa951b7ee97c9dc8f507d3e3126e"),  # J
    28: ("56b086fbb57bdf2d524da0b784f5913a0038bdcad045af99416443a9258bbcfd", "073cd28234d8b97d00d38a0bdd95fc54c1577f037149356e4cd87f03678cd65b"),  # D
    29: ("8d0f826b2c06fd69783781d6b46777809f2a01872622fff281cbaf201f5c4c38", "654d8a7146c7333acedde672bd3dc262b0baacbc9fcc8d4f2e92c13e7f0524d0"),  # J
    30: ("34a9883acad0c99fcd6a739b82e6c529a79cecf2cbd8dcc8fcd15f0016f9717c", "02921a45827d82172957c34a83c809580cbc28e81927557826f7c061031fac72"),  # J
    31: ("7da7405a3db41544791732d12887b075996921c2f7daf3df07ce23f5bbb0ae73", "3ef99eaa1e58bde85c2285651b1d8ebbcdf09752b757cabbb270d5ceef44b002"),  # J
    32: ("55489ffdc300a4d3409e6bf6044cba3fbe0ad9a4693fbba9c941b5d209fbc709", "57a9dca38d74ec6591f54ab9da868fd0cc0c4cc05d5a2b3dba7797dc2a097291"),  # J
    33: ("c09424b67272f0b43e03b69d3ebfcfbcdc204b8d0e5afcf379c88ca4c601c133", "f36077050e69ecfaffd56aa537dab523d42ac0895046bfab25bdd63f41f9cc64"),  # D
    34: ("ae2c7c4018507884ca17e3846549a0b7b4642b253d95915788a2b9fc427cf575", "c44c33bc48e3491dee9de84f3c72c04ffa407eba19e9caeb5a8b7d39c9f00dc3"),  # D
    35: ("459aee322e24ecee354a0dcf90560f823404ef1cdd131f3a236377233253c82a", "1267ed2b8758c0276c76b526c7ba81d39b415f688ac51bf491d1e2fcbd84da3c"),  # D
    36: ("a1709f459af8d5228fb31e01f67bb83e89b4150edd6b8f9ede3e159862beb07e", "0e3103799288cfda6ac9da8c4ff0c0d8ff5e4a4eb0eb531b4a24f969a9268da8"),  # J
    37: ("19bf31a9dc2c9c694bd3225b3e99dd594bd5aad81bf59d10eccf8ac56c8047b0", "fbe238d9004bf0d13312fc8f796d80680e47b357aae1048eba78daa5b0255e7e"),  # D
    38: ("128fe0c73ba696bb1a8d9b6d425d3f9b04fdd1d9a76d303165fd7c1adaee7f18", "013f8fd13b9d5245b0b8afcaf3e5c6c2a75b91d6b30c837396b81f8030ee9ded"),  # D
    39: ("9b82f73d915da4ac7eaef42293d7e89908f8b24e299fb4f1d81c1e50adf7b033", "1677324e386995cea21449350cbaa5c9f28a205ab7853900451337aba001cb92"),  # D
    40: ("bed198ee4b2f128859d93c791df695bc1b9d51e47d2becc97ece89d26772d01c", "7b20b05d07a7fb0502bce6be9d565a0b896be8976c1f05535d2c6174258d0099"),  # J
    41: ("7398bde685b0a75f8aa757e16f4a31408de93ddd5e5fa8ef80b09e0ae23051e3", "48789b205774c103cdbe4c9ad1fe07258441915c334849abf62abe6dabc72cb6"),  # J
    42: ("238730de63922436a0c3577f94fdfec8b343096a50755c5166990d41b43275bd", "32ae054e724b7a3b112afb4a2abd652341219ecf1b3d9bf89ebe80c2ce4c3afa"),  # D
    43: ("41e19493ce34f6b841679a23cca9b6651b6ea036d8642c8e2056875dfd76998c", "e0bdb247512ae21d2012166f04eefcc8e3a44e2e1845450db6662a2278bc921e"),  # D
    44: ("5c25cc8f9da20a7162f44dba1133c1ffcdf64aeeb90e0cfffe49e235f2913f6d", "7bd87c0f5fc5d94527fdcbf1694752a98862ac9c3e12ab048e2a157c4f14b156"),  # J
    45: ("2961952fd0dddfcb1965643f98c8902683b310fa4d9f48589abbecfaea5546dd", "6ff9a8c95a348ae19323beaaf01617d3b404aa063e5338b43885598c110e5846"),  # J
    46: ("5c97b777340e4b115ecc9f503244af4ec08cd7b987584cae0ba5da057e92ff5e", "ef2b533953e8ad75c10aa5f5ac66d651f28fcbc076c4e502178ea43b329a9039"),  # J
    47: ("a76876d672141bb21b1a025d9310007501969386da6c6f98ea88bcf4da44cc55", "d3ef88e90ea4bde33ffeff52c6e4bdd406b6c7cbc54b97342f0c11a7f5de91e1"),  # J
    48: ("1ad3aa030c9a1b60f7a73943e7206aed7e38458fb7458e7ace33c55fbca3742c", "8f9104729d64b0ca256734dd7aabf0533d88cd6d6cbc721ddd39da165d402314"),  # J
    49: ("28a36185790c59d2a8f598b3cd3d7796521000f4b6e236aef15a3dee267c0215", "363df51762036a55fe4d2931be8b87c13bc9890e2054a547de37f3d5cc0fa62e"),  # D
}

# generator seed with its config overridden:
# (seed, block_interval_seconds, jitter_seed, run_until_seconds) -> pins
GRID_VARIANTS = {
    (0, 1, None, 50000): ("47a3c9aa4a559828c2bff521013efcf29fc1deec8b059569daf135eee4df9e78", "29e44a3118341f824d360b9264fc112e6ff17bb46cb7d31f4d392bd4c5d47dec"),
    (1, 7, None, None): ("a4423b723f62d64e3bd5ba8dc5dd5e98df2f7d8ad6bccc8f835d774e2de22549", "6fc4911af62e614fe16854dc466d3c22df8a7ccf625ec14c38f84f22bb418262"),
    (2, 60, None, 200000): ("26fc86363121737b70535fb055e02f7564f334f81a6f1a7a07a4f5c68a706e23", "7ee9ad38ad0a4c2f7df8b667b9500cf7277ecced8fa367f248644e4698a4fbfe"),
    (3, 7, 11, 100000): ("747850ec7a893075c44c4d81d193bdc15e9f92a301b3c83cbb8778db5ae06ed3", "11b34d9a5e5c5b27422af8f02b544de85972cebf842fbe4cb6cc532a90a527fc"),
    (4, 60, 12, None): ("160657481b5f4415ab5670ed9a74b98d6e7a38082387b38ffa93705c9c72e7f2", "b4868dca7dc8b3a88419d0831899c1457d85d01bb85951735d5fd74903578f2e"),
    (5, 15, 13, 1000000): ("0c291ab290f071a0eb3d0baa83514c1f24dc7aa35a5b2b1dbf31124100202f59", "9d459a59b8b07c965a9099150766e3c3c79b99dd14f324528c0527d3fd93962b"),
}

# argv -> sha256 of the standard output
DEMO_STDOUT = {
    ("demo",): "d05ece60c860226ece37796c28e2bf18c4cd08391c4284fe7bef282db0d55207",
    ("demo", "--timeout"): "224159c72fa2b65503f1cff56434d393582938d0808bd82b1c105d4fd93faff0",
    ("demo", "--seed", "3"): "58b204f39bb7efa9071df92e65272947b0f66e69d4e2c1b4e976664085ef486b",
}

# sha256 over the report JSON text of every generator seed in range(2000),
# concatenated in seed order
REPORTS_0_1999 = "7733597c9229c3466a558298fb3b024705e63936055ef0a8b3d9de7a4f0c162f"

# sha256 over the ``escrowsim oracle`` standard output of every generator
# seed in range(300), concatenated in seed order
ORACLE_0_299 = "1d8df222c7f920d6eb621e54f6fa03f1f75f6a96d0a00bef86d1330704c721c6"


def _pins(doc: dict) -> tuple[str, str]:
    report = run_scenario(parse_scenario(doc))
    text_sha = hashlib.sha256(report.to_json_text().encode()).hexdigest()
    return text_sha, report.report["tx_digest"]


def test_golden_seeds_cover_both_grids():
    jittered = [s for s in GENERATOR_SEEDS if "jitter_seed" in generate_random_script(s)["config"]]
    assert len(GENERATOR_SEEDS) == 50
    assert 10 <= len(jittered) <= 40


@pytest.mark.parametrize("seed", sorted(GENERATOR_SEEDS))
def test_generator_seed_outputs_are_pinned(seed):
    assert _pins(generate_random_script(seed)) == GENERATOR_SEEDS[seed]


@pytest.mark.parametrize("variant", list(GRID_VARIANTS), ids=str)
def test_grid_variant_outputs_are_pinned(variant):
    seed, interval, jitter_seed, horizon = variant
    doc = generate_random_script(seed)
    config = doc["config"]
    config["block_interval_seconds"] = interval
    config.pop("jitter_seed", None)
    if jitter_seed is not None:
        config["jitter_seed"] = jitter_seed
    if horizon is not None:
        config["run_until_seconds"] = horizon
    assert _pins(doc) == GRID_VARIANTS[variant]


@pytest.mark.parametrize("argv", list(DEMO_STDOUT), ids=" ".join)
def test_demo_stdout_is_pinned(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEMO_STDOUT[argv]


def test_report_text_of_seeds_0_to_1999_is_pinned():
    digest = hashlib.sha256()
    for seed in range(2000):
        report = run_scenario(parse_scenario(generate_random_script(seed)))
        digest.update(report.to_json_text().encode())
    assert digest.hexdigest() == REPORTS_0_1999


def test_oracle_stdout_of_seeds_0_to_299_is_pinned(tmp_path):
    path = tmp_path / "script.json"
    digest = hashlib.sha256()
    for seed in range(300):
        path.write_text(json.dumps(generate_random_script(seed)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["oracle", str(path)]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == ORACLE_0_299
