#!/usr/bin/env bash
# Caller report: every `pub` fn, type (struct, enum, type alias), trait,
# const and static declared under crates/*/src that no production code
# names.
#
#   scripts/uncalled.sh           one "file:line: kind name" per item, then
#                                 the count
#   scripts/uncalled.sh --count   the count only
#
# Production code is everything outside `#[cfg(test)]` items in
# crates/*/src (bins included), src/, examples/ and benchmark/src. The
# shims (crates/shims) and lowdiff-testkit are neither listed nor searched.
# Comments, string and char literals and `use` statements are stripped
# first, so a doc link or a re-export is not a caller; neither is an item's
# own declaration, an `impl` header or another item declared with the
# same name.
#
# The search is by name, so an item that shares its name with anything
# production code names counts as called: the report can miss an uncalled
# item, but it does not list a called one. It reports; it never fails
# (scripts/ci.sh fails when the count exceeds its ceiling).

set -euo pipefail
cd "$(dirname "$0")/.."

files() {
  find crates/*/src src examples benchmark/src -name '*.rs' \
    -not -path 'crates/testkit/*' | sort
}

files | perl -e '
use strict;
use warnings;

my $count_only = grep { $_ eq "--count" } @ARGV;

# Comments and literal contents out, line breaks kept.
sub strip_lexical {
    my ($s) = @_;
    $s =~ s{
        //[^\n]*
      | /\*.*?\*/
      | \bb?r(\#*)".*?"\1
      | (?:\bb)?"(?:[^"\\]|\\.)*"
      | (?:\bb)?\x27(?:[^\x27\\\n]|\\(?:u\{\w*\}|x\w\w|.))\x27
    }{
        my $m = $&;
        my $nl = ($m =~ tr/\n//);
        ($m =~ m{^/} ? "" : "\"\"") . ("\n" x $nl)
    }gsex;
    return $s;
}

# The production lines of one stripped file: `#[cfg(test)]` items and
# `use` statements dropped. Returns [line number, text] pairs.
sub production_lines {
    my @lines = split /\n/, $_[0], -1;
    my @keep;
    my $i = 0;
    while ($i < @lines) {
        my $l = $lines[$i];
        if ($l =~ s/^\s*#\[cfg\(test\)\]//) {
            # Skip further attributes, then the gated item: up to its
            # closing brace, or to its `;`/`,` when it opens none.
            $lines[$i] = $l;
            $i++ while $i < @lines && $lines[$i] =~ /^\s*(#\[.*\])?\s*$/;
            my ($depth, $opened) = (0, 0);
            while ($i < @lines) {
                my $x = $lines[$i++];
                $depth += ($x =~ tr/{//);
                $opened ||= $x =~ /\{/;
                $depth -= ($x =~ tr/}//);
                last if $opened && $depth <= 0;
                last if !$opened && $x =~ /[;,]\s*$/;
            }
            next;
        }
        if ($l =~ /^\s*(?:pub(?:\([^)]*\))?\s+)?use\s/) {
            $i++ while $i < @lines && $lines[$i] !~ /;/;
            $i++;
            next;
        }
        push @keep, [$i + 1, $l];
        $i++;
    }
    return @keep;
}

my (@decls, %named);
while (my $path = <STDIN>) {
    chomp $path;
    open my $fh, "<", $path or die "$path: $!";
    my $src = do { local $/; <$fh> };
    close $fh;
    my $declares = $path =~ m{^crates/[^/]+/src/};
    for my $ln (production_lines(strip_lexical($src))) {
        my ($no, $text) = @$ln;
        if ($declares) {
            while ($text =~ /\bpub\s+(?:(?:const|unsafe|async)\s+)*(fn|struct|enum|trait|type|const|static)\s+([A-Za-z_]\w*)/g) {
                push @decls, [$path, $no, $1, $2];
            }
        }
        $named{$_}++ for $text =~ /\b([A-Za-z_]\w*)\b/g;
        # Declarations and impl headers name an item without using it.
        $named{$_}-- for $text =~ /\b(?:fn|struct|enum|trait|type|const|static|union|mod)\s+([A-Za-z_]\w*)/g;
        $named{$1}-- if $text =~ /^\s*(?:unsafe\s+)?impl\s*(?:<[^{]*?>)?\s*([A-Za-z_]\w*)/;
        $named{$1}-- if $text =~ /^\s*(?:unsafe\s+)?impl\b[^{]*\bfor\s+([A-Za-z_]\w*)/;
    }
}

my @uncalled = grep { ($named{$_->[3]} // 0) <= 0 } @decls;
if ($count_only) {
    print scalar(@uncalled), "\n";
} else {
    printf "%s:%d: %s %s\n", @$_ for @uncalled;
    print scalar(@uncalled), " uncalled pub items\n";
}
' -- "$@"
