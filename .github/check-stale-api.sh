#!/usr/bin/env bash
# Runs the checks of stale-api.txt (its header gives the format):
# prints each match under the reason of its check and exits 1 when
# anything matched, 0 when nothing did, 2 on a malformed check.
#
#     .github/check-stale-api.sh
set -u
cd "$(dirname "$0")/.." || exit 2
status=0 reason="" in_reason=0 scope=() excludes=()
while IFS= read -r line || [ -n "$line" ]; do
    case $line in
    '#'*)
        [ "$in_reason" = 1 ] || reason=""
        in_reason=1
        reason+="${line#\#}"$'\n'
        continue ;;
    '') ;;
    '@ '*)
        scope=() excludes=()
        for w in ${line#@ }; do
            case $w in
            '!'*) excludes+=("--exclude=${w#!}") ;;
            *) [ -e "$w" ] || { echo "stale-api.txt: no $w"; exit 2; }
               scope+=("$w") ;;
            esac
        done ;;
    *)
        kind=${line%% *} pat=${line#* }
        case $kind in
        bre) hits=$(grep -RIn "${excludes[@]}" -e "$pat" "${scope[@]}") ;;
        ere) hits=$(grep -RInE "${excludes[@]}" -e "$pat" "${scope[@]}") ;;
        word) hits=$(grep -RInw "${excludes[@]}" -e "$pat" "${scope[@]}") ;;
        next)
            hits=$(grep -RIl "${excludes[@]}" '' "${scope[@]}" |
                A=${pat%% *} B=${pat#* } xargs -r awk '
                    FNR == 1 { prev = "" }
                    prev ~ ENVIRON["A"] && $0 ~ ENVIRON["B"] {
                        print FILENAME ":" FNR ": " $0 }
                    { prev = $0 }') ;;
        path) hits=$(ls -d $pat 2> /dev/null) ;;
        *) echo "stale-api.txt: unknown check: $line"; exit 2 ;;
        esac
        if [ -n "$hits" ]; then
            printf '%s%s\n\n' "$reason" "$hits"
            status=1
        fi ;;
    esac
    in_reason=0
done < .github/stale-api.txt
exit $status
