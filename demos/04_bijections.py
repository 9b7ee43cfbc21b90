"""The explicit bijections, each shown on a worked element.

Every map is partial with an explicit inverse; the library checks domains
and refuses anything outside them.
"""

from wreathperm import (
    circular_successions,
    class_representative,
    class_signature,
    colored_foata,
    colored_foata_inverse,
    derangement_insert,
    derangement_remove,
    foata,
    format_cycles,
    isolated_to_increasing,
    linear_pairs,
    parse_cycles,
    parse_one_line,
    remove_max_succession,
)

print("plain cycles-to-word: cycles (3 1 4 6 9)(5 7 8)(2) become")
print("  ", foata((4, 2, 1, 6, 7, 9, 8, 5, 3)))
print()

pi = parse_one_line("3^1 4 9^1 8^1 7 5^1 6 2^2 1^2", 4, 9)
image = colored_foata(pi)
print("colored cycles-to-word on", pi)
print("  image:", image)
print("  2-circular successions of the source:", tuple(sorted(circular_successions(pi, 2))))
print("  2-linear successions of the image:  ",
      tuple(sorted(v for k, v in linear_pairs(image) if k == 2)))
print("  inverse restores the source:", colored_foata_inverse(image) == pi)
print()

q = parse_one_line("3 9^1 5 8^2 7^1 6^2 2 1^1 4", 3, 9)
print("removing the largest 2-circular succession (value 5) of", q)
print("  gives", remove_max_succession(q, 4, 2))
print()

iso = parse_cycles("(1)(2 7^1 6^2)(3 5^2 9)(4)(8^2)", 3, 9)
print("sorting the 4-prefix of the isolated-fixed element", format_cycles(iso))
print("  gives the increasing-fixed word", isolated_to_increasing(iso, 4))
print()

p = parse_cycles("(1^2 4^1 7 3^2 2 6^1 5)(8^1)(9^2)", 3, 9)
sig = class_signature(p, 3)
print("class signature of", format_cycles(p), "at m=3:")
print("  words:", ["" + " ".join(str(s) for s in w) for w in sig.words])
print("  representative:", format_cycles(class_representative(p, 3)))
print()

d = parse_cycles("(1^1)(2^1)", 2, 2)
grown = derangement_insert(1, 3, d)
print("inserting value 3 with color 1, anchor 3, into", format_cycles(d))
print("  gives", format_cycles(grown), "| inverse:",
      derangement_remove(grown) == (1, 3, d))
