"""Control-flow obfuscation by splitting a program's CFG across
cooperating threads that hand control to each other through per-block
guard flags, preserving the original sequential semantics.

The package exports no names itself: import each from the module that
defines it (`threadsplit.textfmt`, `.obfuscate`, `.runtime`, `.verify`)."""
