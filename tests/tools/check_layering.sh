#!/usr/bin/env bash
# Layering check: the libraries depend only downward, core -> pipeline ->
# engine.  Fails, naming each offending line, when a file under
# src/core/ includes pipeline/, engine/, wirefront/ or loadgen/, or a
# file under src/pipeline/ includes engine/ or wirefront/.
#
#   check_layering.sh SRC_DIR
set -u
src=${1:?usage: check_layering.sh SRC_DIR}
status=0

# forbid DIR LAYER...: no file under SRC_DIR/DIR includes LAYER/.
forbid() {
  local dir=$1
  shift
  local layers
  layers=$(IFS='|'; echo "$*")
  if [ ! -d "$src/$dir" ]; then
    echo "no directory $src/$dir"
    status=1
    return
  fi
  local hits
  hits=$(grep -rnE "^[[:space:]]*#[[:space:]]*include[[:space:]]*[\"<]($layers)/" \
    "$src/$dir") || true
  if [ -n "$hits" ]; then
    echo "src/$dir/ includes a layer above it:"
    echo "$hits"
    status=1
  fi
}

forbid core pipeline engine wirefront loadgen
forbid pipeline engine wirefront
exit $status
