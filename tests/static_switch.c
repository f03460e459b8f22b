/* A switch, printf and abort: linked with -static, glibc brings in
   calls to undefined weak functions, which resolve to address 0. */
#include <stdio.h>
#include <stdlib.h>

int main(int argc, char **argv)
{
    switch (argc) {
    case 1: puts("one"); break;
    case 2: printf("two %s\n", argv[1]); break;
    case 3: printf("three %d\n", argc * 3); break;
    case 5: printf("five %s\n", argv[4]); break;
    case 6: return 6;
    default: abort();
    }
    return 0;
}
