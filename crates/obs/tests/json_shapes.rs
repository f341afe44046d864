//! Whole-document shapes from the public `mersit_obs::json` API: scalars
//! print as they are, and nested blocks indent two spaces per level
//! (an empty nested block still breaks the line at its own indent).

use mersit_obs::json::{block_arr, block_obj, line_arr, line_obj};

#[test]
fn scalars_and_nested_blocks_render_exactly() {
    let scalars = [true.into(), 7u32.into(), u64::MAX.into(), 0usize.into()];
    let inner = block_obj([("k", line_arr(["a".into()])), ("e", block_arr([]))]);
    let doc = block_obj([
        ("s", line_arr(scalars)),
        ("o", block_arr([inner, line_obj([("n", 1u64.into())])])),
    ]);
    let want = r#"{
  "s": [true, 7, 18446744073709551615, 0],
  "o": [
    {
      "k": ["a"],
      "e": [
      ]
    },
    {"n": 1}
  ]
}
"#;
    assert_eq!(doc.into_document(), want);
}
