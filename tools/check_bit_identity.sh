#!/bin/sh
# Estimates must be byte-identical to another revision's.
#
#   tools/check_bit_identity.sh REV [BASE_DIR]
#
# Builds REV in a new git worktree at BASE_DIR (default: a sibling of the
# working tree, <repo>-base; it must not exist yet, and is removed on
# exit) and the working tree itself, then cmp's the two builds' outputs:
#   1. `bench/main.exe --smoke` stdout (the CI smoke grid: Tables IV-VI);
#   2. `bench/main.exe --quick --tables 7,8,9 --jobs 2 --skip-bechamel`
#      stdout: Tables VII(a), VII(b), VIII and IX, the related-work table,
#      the star join, the 4-table chain and the four ablations (no wall
#      time reaches it; about 80 s per side on 2 vCPUs);
#   3. `repro_cli bakeoff --scale 0.05 --runs 5 --thetas 0.01 --jobs 2`
#      stdout (the cross-estimator grid and its coverage table);
#   4. `repro_cli batch` over generated IMDB stores of the eight JOB join
#      graphs, at theta 0.05 for scales 0.1 and 0.005, at theta 0.0001
#      for scale 0.1 (where CSDL-Opt's budget fits only the sentries of
#      mc_ct and every q_v is 0), and at theta 0.05 for scale 0.1 built
#      with `--shards 4 --jobs 2` (a store of four segments, each written
#      in the canonical value order), each graph answering a fixed query
#      file of the JOB predicates and sweeps of their constants. The
#      `batch:` timing line is dropped; everything else, stderr included,
#      must match.
# Both sides read the same generated CSVs; each builds its own store, and
# the two stores must match byte for byte too, the drift sentinels'
# recorded baselines (their build-time q-errors) included.
# Outputs land in $OUT (default _build/bit-identity). Exit 0 when every
# output matches, 1 at the first difference (named, with its diff head).
# A change that is meant to move estimates skips this check.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 REV [BASE_DIR]" >&2
  exit 2
fi
top=$(git rev-parse --show-toplevel)
sha=$(git -C "$top" rev-parse --verify "$1^{commit}")
base=${2:-$(dirname "$top")/$(basename "$top")-base}
out=${OUT:-$top/_build/bit-identity}

if [ -e "$base" ]; then
  echo "$0: $base already exists; remove it or name another BASE_DIR" >&2
  exit 2
fi
git -C "$top" worktree add --detach "$base" "$sha" >/dev/null
trap 'git -C "$top" worktree remove --force "$base"' EXIT

for tree in "$top" "$base"; do
  (cd "$tree" && dune build --root . bin/repro_cli.exe bench/main.exe)
done
new_cli=$top/_build/default/bin/repro_cli.exe
old_cli=$base/_build/default/bin/repro_cli.exe
rm -rf "$out"
mkdir -p "$out"

same() {
  if ! cmp -s "$out/$1.new" "$out/$1.old"; then
    echo "DIFFERS: $1 (against $sha)" >&2
    diff "$out/$1.old" "$out/$1.new" | head -20 >&2
    exit 1
  fi
  echo "identical: $1 ($(wc -l < "$out/$1.new") lines)"
}

for side in new old; do
  if [ $side = new ]; then tree=$top; else tree=$base; fi
  bin=$tree/_build/default
  "$bin/bench/main.exe" --smoke --jobs 2 > "$out/smoke.$side" 2>/dev/null
  "$bin/bench/main.exe" --quick --tables 7,8,9 --jobs 2 --skip-bechamel \
    > "$out/quick.$side" 2>/dev/null
  "$bin/bin/repro_cli.exe" bakeoff --scale 0.05 --runs 5 --thetas 0.01 \
    --jobs 2 > "$out/bakeoff.$side" 2>/dev/null
done
same smoke
same quick
same bakeoff

# The JOB queries' predicates (perfbench/inputs.ml) with their constants
# swept, per join graph: "LEFT ;; RIGHT", an empty side selects nothing.
queries() {
  case $1 in
  mc_ct) awk 'BEGIN { split("production companies,distributors,special effects companies,miscellaneous companies", k, ",");
      print " ;; "; for (c = 1; c <= 40; c++) printf "company_id <= %d ;; kind = '\''%s'\''\n", c, k[c % 4 + 1] }' ;;
  mi_it) awk 'BEGIN { print " ;; "; for (i = 95; i <= 115; i++) printf " ;; id = %d\n", i }' ;;
  t_mc) awk 'BEGIN { print " ;; "; for (y = 1900; y <= 2015; y += 5) printf "production_year > %d ;; company_type_id = %d\n", y, y % 4 + 1 }' ;;
  t_mi) awk 'BEGIN { print " ;; "; for (y = 1900; y <= 2015; y += 5) printf "production_year > %d ;; info_type_id <= %d\n", y, y % 12 + 1 }' ;;
  t_mk) awk 'BEGIN { print " ;; "; for (y = 1900; y <= 2015; y += 3) printf "production_year > %d ;; \n", y }' ;;
  mk_k) awk 'BEGIN { split("The,A,La,El,Le,Der,Love,My,Night,Man,Last,Black,Dead,Big,Little,One", p, ",");
      print " ;; "; for (i = 1; i <= 16; i++) printf " ;; keyword LIKE '\''%s%%'\''\n", p[i] }' ;;
  at_mk) awk 'BEGIN { split("The,A,La,El,Le,Der,Love,My", p, ",");
      print " ;; "; for (i = 1; i <= 24; i++) printf "title LIKE '\''%s%%'\'' ;; keyword_id <= %d\n", p[i % 8 + 1], 100 * i }' ;;
  ci_t) awk 'BEGIN { print " ;; "; for (r = 1; r <= 11; r++) printf "role_id <= %d ;; \n", r }' ;;
  esac
}

keys="mc_ct mi_it t_mc t_mi t_mk mk_k at_mk ci_t"
# SCALE:THETA:SHARDS
for run in 0.1:0.05:1 0.005:0.05:1 0.1:0.0001:1 0.1:0.05:4; do
  scale=${run%%:*}
  shards=${run##*:}
  theta=${run#*:}
  theta=${theta%:*}
  name=$scale
  [ "$theta" = 0.05 ] || name=$scale-theta$theta
  sharding=
  if [ "$shards" != 1 ]; then
    name=$name-shards$shards
    sharding="--shards $shards --jobs 2"
  fi
  data=$out/imdb-$scale
  [ -d "$data" ] ||
    "$new_cli" generate-imdb --scale "$scale" --out "$data" >/dev/null
  graphs="$data/movie_companies.csv:company_type_id,$data/company_type.csv:id
$data/movie_info_idx.csv:info_type_id,$data/info_type.csv:id
$data/title.csv:id,$data/movie_companies.csv:movie_id
$data/title.csv:id,$data/movie_info_idx.csv:movie_id
$data/title.csv:id,$data/movie_keyword.csv:movie_id
$data/movie_keyword.csv:keyword_id,$data/keyword.csv:id
$data/aka_title.csv:movie_id,$data/movie_keyword.csv:movie_id
$data/cast_info.csv:movie_id,$data/title.csv:id"
  set --
  i=1
  for key in $keys; do
    set -- "$@" "$key=$(echo "$graphs" | sed -n "${i}p")"
    i=$((i + 1))
  done
  for side in new old; do
    if [ $side = new ]; then cli=$new_cli; else cli=$old_cli; fi
    # a relative store path keeps the build's stdout free of the side
    mkdir -p "$out/$side-$name"
    (cd "$out/$side-$name" &&
      # $sharding is unquoted: empty, or two options and their values
      "$cli" synopsis-build "$@" --theta "$theta" $sharding --store store.bin
      for key in $keys; do
        queries "$key" > "q-$key.txt"
        "$cli" batch "$key" --store store.bin --queries "q-$key.txt" 2>&1 |
          grep -v '^batch:'
      done) > "$out/batch-$name.$side" 2>&1
    cp "$out/$side-$name/store.bin" "$out/store-$name.$side"
  done
  same "batch-$name"
  same "store-$name"
done
